// Package addr models the simulated virtual address space shared by the
// workload generators and the memory-hierarchy simulator.
//
// Workloads do not execute real machine code; instead they describe
// themselves as activity over named code and data regions placed in a
// single 64-bit address space. The layout mirrors the split the paper's
// profiler observes on a real system: a kernel code range (so OS samples
// are distinguishable from user samples, §5.2) and per-workload user code
// and data ranges.
package addr

import (
	"fmt"
	"sort"
)

// Address is a simulated virtual address.
type Address = uint64

// Standard layout constants. The exact values are arbitrary; what matters
// is that kernel and user code are disjoint and that data regions do not
// alias code regions in the cache simulator.
const (
	// KernelBase is the start of simulated kernel text. Any EIP at or
	// above it is attributed to the OS.
	KernelBase Address = 0xffffffff80000000

	// UserCodeBase is the start of simulated user text.
	UserCodeBase Address = 0x0000000000400000

	// UserDataBase is the start of simulated user data (heaps, tables,
	// indexes, stacks).
	UserDataBase Address = 0x0000000100000000

	// CodeAlign is the alignment of allocated code regions; keeping
	// regions aligned makes EIP→region attribution trivial.
	CodeAlign Address = 0x1000

	// BlockBytes is the byte spacing of basic blocks inside code regions:
	// every workload emits block PCs on 64-byte boundaries, so each code
	// region of size S contains S/BlockBytes internable blocks.
	BlockBytes = 64
)

// IsKernel reports whether pc lies in the simulated kernel text range.
func IsKernel(pc Address) bool { return pc >= KernelBase }

// Region is a named, contiguous range of the address space.
type Region struct {
	Name string
	Base Address
	Size uint64
}

// Contains reports whether a lies inside the region.
func (r Region) Contains(a Address) bool {
	return a >= r.Base && a < r.Base+r.Size
}

// End returns the first address past the region.
func (r Region) End() Address { return r.Base + r.Size }

func (r Region) String() string {
	return fmt.Sprintf("%s[%#x..%#x)", r.Name, r.Base, r.End())
}

// Space is a bump allocator over the three standard ranges. It hands out
// non-overlapping regions and can map an address back to its region.
//
// Space is not safe for concurrent use; workloads build their layout during
// setup, before simulation starts.
type Space struct {
	nextKernel Address
	nextCode   Address
	nextData   Address
	regions    []Region // sorted by Base

	// Block interning: every code region (user and kernel) is assigned a
	// dense range of int32 block ids at allocation time, one id per
	// BlockBytes of the region, in allocation order. The ids let hot-loop
	// accumulators index slices instead of hashing 64-bit PCs.
	nextBlockID int32
	idBases     map[Address]int32 // region base -> first block id
}

// NewSpace returns an empty address space with the standard layout.
func NewSpace() *Space {
	return &Space{
		nextKernel: KernelBase,
		nextCode:   UserCodeBase,
		nextData:   UserDataBase,
	}
}

func align(a Address, to Address) Address {
	return (a + to - 1) &^ (to - 1)
}

// AllocCode reserves size bytes of user text and returns the region.
// It panics on a non-positive size.
func (s *Space) AllocCode(name string, size uint64) Region {
	if size == 0 {
		panic("addr: AllocCode with zero size")
	}
	base := align(s.nextCode, CodeAlign)
	s.nextCode = base + Address(size)
	s.internRegion(base, size)
	return s.insert(Region{Name: name, Base: base, Size: size})
}

// AllocKernelCode reserves size bytes of kernel text and returns the region.
func (s *Space) AllocKernelCode(name string, size uint64) Region {
	if size == 0 {
		panic("addr: AllocKernelCode with zero size")
	}
	base := align(s.nextKernel, CodeAlign)
	s.nextKernel = base + Address(size)
	s.internRegion(base, size)
	return s.insert(Region{Name: name, Base: base, Size: size})
}

// internRegion assigns the next dense block-id range to a code region.
func (s *Space) internRegion(base Address, size uint64) {
	if s.idBases == nil {
		s.idBases = make(map[Address]int32, 16)
	}
	s.idBases[base] = s.nextBlockID
	s.nextBlockID += int32((size + BlockBytes - 1) / BlockBytes)
}

// BlockIDBase returns the first block id of the code region allocated at
// base. It panics if base is not the base address of a code region of this
// space (a programming error: ids exist only for AllocCode/AllocKernelCode
// regions).
func (s *Space) BlockIDBase(base Address) int32 {
	id, ok := s.idBases[base]
	if !ok {
		panic(fmt.Sprintf("addr: BlockIDBase(%#x): not a code region base", base))
	}
	return id
}

// BlockPCs returns the id -> PC table for every interned block: element i
// is the 64-byte-aligned address of the block with id i. The table is
// rebuilt on each call; callers cache it for the duration of a run.
func (s *Space) BlockPCs() []uint64 {
	pcs := make([]uint64, s.nextBlockID)
	for base, first := range s.idBases {
		r, ok := s.Find(base)
		if !ok {
			panic(fmt.Sprintf("addr: interned region at %#x missing", base))
		}
		n := int32((r.Size + BlockBytes - 1) / BlockBytes)
		for i := int32(0); i < n; i++ {
			pcs[first+i] = base + uint64(i)*BlockBytes
		}
	}
	return pcs
}

// AllocData reserves size bytes of data space and returns the region.
func (s *Space) AllocData(name string, size uint64) Region {
	if size == 0 {
		panic("addr: AllocData with zero size")
	}
	base := align(s.nextData, 64) // cache-line align data
	s.nextData = base + Address(size)
	return s.insert(Region{Name: name, Base: base, Size: size})
}

func (s *Space) insert(r Region) Region {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base >= r.Base })
	s.regions = append(s.regions, Region{})
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
	return r
}

// Find returns the region containing a, if any.
func (s *Space) Find(a Address) (Region, bool) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base > a })
	if i == 0 {
		return Region{}, false
	}
	r := s.regions[i-1]
	if !r.Contains(a) {
		return Region{}, false
	}
	return r, true
}

// Regions returns all allocated regions sorted by base address. The
// returned slice is owned by the Space and must not be modified.
func (s *Space) Regions() []Region { return s.regions }

// SpaceFromRegions reconstructs a Space from a serialized region list (the
// profile store persists a collection's layout so deserialized profiles
// can still symbolize EIPs). Regions are ordered by base, stably, so a
// list already in base order comes back exactly as given. The bump
// cursors are advanced past every existing region, so a reconstructed
// Space could even allocate further without overlap — though in practice
// it is only ever asked to Find.
func SpaceFromRegions(regions []Region) *Space {
	s := NewSpace()
	s.regions = make([]Region, len(regions))
	copy(s.regions, regions)
	sort.SliceStable(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
	for _, r := range s.regions {
		end := r.End()
		switch {
		case r.Base >= KernelBase:
			if end > s.nextKernel {
				s.nextKernel = end
			}
		case r.Base >= UserDataBase:
			if end > s.nextData {
				s.nextData = end
			}
		default:
			if end > s.nextCode {
				s.nextCode = end
			}
		}
	}
	return s
}
