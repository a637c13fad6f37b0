package addr

import (
	"testing"

	"repro/internal/xrand"
)

// TestBlockInternDense pins the interning contract the hot loop relies on:
// every code region (user and kernel) gets a dense id range in allocation
// order, one id per BlockBytes, and BlockPCs inverts BlockIDBase exactly.
func TestBlockInternDense(t *testing.T) {
	s := NewSpace()
	a := s.AllocCode("a", 200)       // 4 blocks (200/64 rounded up)
	k := s.AllocKernelCode("k", 64)  // 1 block
	b := s.AllocCode("b", 64*3)      // 3 blocks
	d := s.AllocData("data", 0x1000) // data regions are not interned

	if got := int(s.nextBlockID); got != 8 {
		t.Fatalf("block ids handed out = %d, want 8", got)
	}
	if base := s.BlockIDBase(a.Base); base != 0 {
		t.Errorf("BlockIDBase(a) = %d, want 0", base)
	}
	if base := s.BlockIDBase(k.Base); base != 4 {
		t.Errorf("BlockIDBase(k) = %d, want 4", base)
	}
	if base := s.BlockIDBase(b.Base); base != 5 {
		t.Errorf("BlockIDBase(b) = %d, want 5", base)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BlockIDBase(data) should panic: data regions have no ids")
			}
		}()
		s.BlockIDBase(d.Base)
	}()

	pcs := s.BlockPCs()
	if len(pcs) != 8 {
		t.Fatalf("len(BlockPCs) = %d, want 8", len(pcs))
	}
	for i, r := range []Region{a, k, b} {
		base := s.BlockIDBase(r.Base)
		n := int32((r.Size + BlockBytes - 1) / BlockBytes)
		for j := int32(0); j < n; j++ {
			want := r.Base + uint64(j)*BlockBytes
			if pcs[base+j] != want {
				t.Fatalf("region %d block %d: pcs[%d] = %#x, want %#x", i, j, base+j, pcs[base+j], want)
			}
		}
	}
}

// FuzzBlockIntern drives random mixes of user/kernel code and data
// allocations and checks the invariants the dense accumulators depend on:
// ids are dense and unique, every interned PC is 64-byte aligned and maps
// back to exactly one id (no duplicate PCs across regions), kernel blocks
// intern like user blocks, and repeated table reads agree (the table is a
// pure function of the space, so concurrent readers — e.g. trace-producer
// goroutines on different threads — can each rebuild it and see identical
// ids).
func FuzzBlockIntern(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(42), uint8(0))
	f.Add(uint64(7), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		rng := xrand.New(seed)
		s := NewSpace()
		var code []Region
		for i := 0; i < int(n%40)+1; i++ {
			size := uint64(1 + rng.Intn(1<<12))
			switch rng.Intn(3) {
			case 0:
				code = append(code, s.AllocCode("c", size))
			case 1:
				code = append(code, s.AllocKernelCode("k", size))
			default:
				s.AllocData("d", size) // must not mint ids
			}
		}

		want := 0
		for _, r := range code {
			want += int((r.Size + BlockBytes - 1) / BlockBytes)
		}
		if got := int(s.nextBlockID); got != want {
			t.Fatalf("block ids handed out = %d, want %d", got, want)
		}

		pcs := s.BlockPCs()
		if len(pcs) != want {
			t.Fatalf("len(BlockPCs) = %d, want %d", len(pcs), want)
		}
		seen := make(map[uint64]int32, len(pcs))
		for id, pc := range pcs {
			if pc%BlockBytes != 0 {
				t.Fatalf("id %d: PC %#x not %d-byte aligned", id, pc, BlockBytes)
			}
			if prev, dup := seen[pc]; dup {
				t.Fatalf("PC %#x interned twice: ids %d and %d", pc, prev, id)
			}
			seen[pc] = int32(id)
			r, ok := s.Find(pc)
			if !ok {
				t.Fatalf("id %d: PC %#x not inside any region", id, pc)
			}
			if int32(id) != s.BlockIDBase(r.Base)+int32((pc-r.Base)/BlockBytes) {
				t.Fatalf("id %d: PC %#x does not round-trip through BlockIDBase(%v)", id, pc, r)
			}
			if IsKernel(pc) != IsKernel(r.Base) {
				t.Fatalf("id %d: PC %#x kernel-ness disagrees with its region %v", id, pc, r)
			}
		}

		// A second read of the table must agree element-for-element: ids are
		// stable across rebuilds, so independent readers share the mapping.
		again := s.BlockPCs()
		for i := range pcs {
			if pcs[i] != again[i] {
				t.Fatalf("BlockPCs not stable at id %d: %#x vs %#x", i, pcs[i], again[i])
			}
		}
	})
}
