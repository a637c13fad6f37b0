// Package profstore is the content-addressed profile store: a three-tier
// read path — in-memory LRU, on-disk entries, recompute — in front of the
// simulation front-end (profiler.Collect), which dominates cold Analyze
// time now that the analysis kernels are fast.
//
// Entries are keyed by a canonical hash of everything the collected
// profile is a function of: workload name, the full machine configuration
// (cpu.Config.Canonical, every field the simulator reads), the sampling
// period override, the run length, and the BBV options. Anything that
// cannot change the profile's bytes — trace workers, analysis parallelism,
// downstream tree/fold settings — is deliberately excluded, so one stored
// collection serves every analysis configuration over it (whole-system and
// thread-separated EIPVs of the same run share one entry).
//
// Durability and failure behavior:
//
//   - Writes are atomic: encode, write to a temp file in the store
//     directory, rename into place. Concurrent writers of the same key
//     race benignly — the last rename wins and readers only ever observe
//     a complete entry, never a torn one.
//   - Reads are corruption-tolerant: a truncated, bit-rotted, or
//     foreign-version entry fails its checksum/version gate, is removed,
//     and the profile is recomputed and rewritten. The store never
//     crashes on bad disk state and never serves it.
//   - An unwritable directory degrades the store to its memory tier with
//     one logged warning; reads are still attempted (a read-only shared
//     store is a legitimate deployment).
//
// The memory tier is a flight.Cache, the same primitive as the experiment
// package's Analyze cache: concurrent Gets for one key share one flight
// on a flight-owned context, cancelled only when its last waiter has
// detached, and failed flights are never retained. It retains each
// collection as its sealed FZPR bytes, the disk tier's entry format, at
// about a fifth of the decoded samples' size; see Get for what a caller
// receives.
package profstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/flight"
	"repro/internal/profiler"
)

// entryExt is the on-disk entry suffix ("fuzzyphase profile").
const entryExt = ".fzp"

// keyFormat versions the canonical key string itself: bump it if the key
// grammar changes, so old entries become unreachable rather than aliased.
const keyFormat = "fzpk1"

// Key identifies one collection run: every CollectOptions field that can
// change the profile's bytes, plus the workload name.
type Key struct {
	Workload         string
	Machine          cpu.Config
	Seed             uint64
	Intervals        int
	PeriodOverride   uint64
	BuildBBV         bool
	BBVIntervalInsts uint64
}

// Canonical renders the key as a stable string: two Keys collide iff the
// collections they describe are byte-identical by construction.
func (k Key) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|w=%s|seed=%d|iv=%d|po=%d|bbv=%t|bi=%d|",
		keyFormat, k.Workload, k.Seed, k.Intervals, k.PeriodOverride, k.BuildBBV, k.BBVIntervalInsts)
	b.WriteString(k.Machine.Canonical())
	return b.String()
}

// Hash returns the content address: a hex digest of the canonical form,
// used as the entry filename.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.Canonical()))
	return hex.EncodeToString(sum[:16])
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// MemHits counts Gets answered from the in-memory tier.
	MemHits uint64
	// DiskHits counts Gets answered by decoding an on-disk entry.
	DiskHits uint64
	// Misses counts Gets that had to run the simulation.
	Misses uint64
	// Shared counts Gets that joined another caller's in-flight collection.
	Shared uint64
	// Writes counts entries persisted to disk, and BytesWritten their
	// total encoded size.
	Writes       uint64
	BytesWritten uint64
	// WriteFailures counts failed persistence attempts (after the first,
	// writes are disabled and the store degrades to memory-only).
	WriteFailures uint64
	// Corruptions counts on-disk entries that failed checksum/structure
	// validation and were removed and recomputed.
	Corruptions uint64
	// Entries is the number of results currently retained in memory;
	// CapEntries the memory-tier cap (0 = unbounded).
	Entries    int
	CapEntries int
	// MemBytes is the encoded size of the results retained in memory.
	MemBytes int64
	// Dir is the disk tier's directory ("" = memory-only).
	Dir string
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	dir := s.Dir
	if dir == "" {
		dir = "memory-only"
	}
	return fmt.Sprintf("profile store: %d mem hits, %d disk hits, %d misses, %d shared flights, %d writes (%.1f MiB), %d corruptions, %d live entries (%.1f MiB), dir=%s",
		s.MemHits, s.DiskHits, s.Misses, s.Shared, s.Writes,
		float64(s.BytesWritten)/(1<<20), s.Corruptions, s.Entries,
		float64(s.MemBytes)/(1<<20), dir)
}

// Store is the three-tier profile store. The zero value is not usable;
// call New.
type Store struct {
	mem *flight.Cache[*entry] // memory tier, by Key.Hash

	mu      sync.Mutex
	dir     string
	noWrite bool // set after the first write failure
	logf    func(format string, args ...any)

	diskHits, misses                    uint64
	writes, bytesWritten, writeFailures uint64
	corruptions                         uint64
}

// entry is one memory-tier value: the collection's sealed FZPR bytes,
// plus the result its flight computed or decoded until the first caller
// to return takes it.
type entry struct {
	enc []byte
	res atomic.Pointer[profiler.CollectResult]
}

// New returns a memory-only store; SetDir attaches the disk tier.
func New() *Store {
	return &Store{
		mem:  flight.New(func(e *entry) int64 { return int64(len(e.enc)) }),
		logf: func(string, ...any) {},
	}
}

// SetLogf installs the warning sink (nil silences it).
func (s *Store) SetLogf(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.mu.Lock()
	s.logf = f
	s.mu.Unlock()
}

// SetDir attaches (or with "" detaches) the on-disk tier, creating the
// directory if needed. Attaching re-enables writes after a degrade.
func (s *Store) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("profstore: %w", err)
		}
	}
	s.mu.Lock()
	s.dir = dir
	s.noWrite = false
	s.mu.Unlock()
	return nil
}

// SetMemCap bounds the memory tier to at most n entries (LRU eviction;
// n <= 0 removes the bound) and returns the previous cap.
func (s *Store) SetMemCap(n int) int { return s.mem.SetCap(n) }

// DropMemory empties the memory tier (disk entries are untouched).
// In-flight collections finish for their waiters but are not re-admitted.
func (s *Store) DropMemory() { s.mem.Clear() }

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	mem := s.mem.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		MemHits:       mem.Hits,
		DiskHits:      s.diskHits,
		Misses:        s.misses,
		Shared:        mem.Shared,
		Writes:        s.writes,
		BytesWritten:  s.bytesWritten,
		WriteFailures: s.writeFailures,
		Corruptions:   s.corruptions,
		Entries:       mem.Entries,
		CapEntries:    mem.Cap,
		MemBytes:      mem.Cost,
		Dir:           s.dir,
	}
}

// Get returns the collection for key, reading through the tiers: memory,
// then disk, then compute. compute runs on a flight-owned context that is
// cancelled only when every waiter has detached; concurrent Gets for the
// same key share one flight. The memory tier keeps only the encoded
// collection: the first caller to return after the flight takes the
// result the flight computed or read, and every other caller, whether it
// joined the flight or hit the retained entry later, gets its own decode
// of the bytes. The results are equal in every field the FZPR codec keeps
// (a decoded Space has the regions, not the simulator's block-ID table),
// and each must be treated as immutable.
func (s *Store) Get(ctx context.Context, key Key, compute func(context.Context) (*profiler.CollectResult, error)) (*profiler.CollectResult, error) {
	ck := key.Hash()
	e, err := s.mem.Get(ctx, ck, func(fctx context.Context) (*entry, error) {
		return s.resolve(fctx, ck, compute)
	})
	if err != nil {
		return nil, err
	}
	if res := e.res.Swap(nil); res != nil {
		return res, nil
	}
	return profiler.DecodeResult(e.enc)
}

// resolve reads the disk tier and falls back to compute; it runs as the
// memory tier's flight. A computed result is encoded once, and those bytes
// are both persisted and retained. Disk hits and misses are counted only
// on success, before any waiter sees the result.
func (s *Store) resolve(fctx context.Context, ck string, compute func(context.Context) (*profiler.CollectResult, error)) (*entry, error) {
	res, enc, fromDisk := s.readDisk(ck)
	if !fromDisk {
		var err error
		if res, err = compute(fctx); err != nil {
			return nil, err
		}
		enc = profiler.EncodeResult(res)
		s.writeDisk(ck, enc)
	}
	e := &entry{enc: enc}
	e.res.Store(res)
	s.mu.Lock()
	if fromDisk {
		s.diskHits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return e, nil
}

// readDisk attempts the disk tier, returning the decoded entry and its
// bytes. Corrupt or foreign-version entries are counted, logged, removed,
// and reported as a miss so the caller recomputes and overwrites.
func (s *Store) readDisk(ck string) (*profiler.CollectResult, []byte, bool) {
	s.mu.Lock()
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return nil, nil, false
	}
	path := filepath.Join(dir, ck+entryExt)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.warnf("profile store: reading %s: %v", path, err)
		}
		return nil, nil, false
	}
	res, err := profiler.DecodeResult(data)
	if err != nil {
		s.mu.Lock()
		s.corruptions++
		s.mu.Unlock()
		s.warnf("profile store: %s: %v (recomputing and overwriting)", path, err)
		_ = os.Remove(path)
		return nil, nil, false
	}
	return res, data, true
}

// writeDisk persists an entry's bytes atomically (temp file + rename).
// The first failure disables further writes — the store degrades to
// memory-only — with one logged warning.
func (s *Store) writeDisk(ck string, data []byte) {
	s.mu.Lock()
	dir, disabled := s.dir, s.noWrite
	s.mu.Unlock()
	if dir == "" || disabled {
		return
	}
	tmp, err := os.CreateTemp(dir, "."+ck+".tmp-*")
	if err != nil {
		s.disableWrites(err)
		return
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(dir, ck+entryExt))
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		s.disableWrites(werr)
		return
	}
	s.mu.Lock()
	s.writes++
	s.bytesWritten += uint64(len(data))
	s.mu.Unlock()
}

func (s *Store) disableWrites(err error) {
	s.mu.Lock()
	s.writeFailures++
	first := !s.noWrite
	s.noWrite = true
	s.mu.Unlock()
	if first {
		s.warnf("profile store: disk write failed: %v — degrading to memory-only (reads still attempted)", err)
	}
}

func (s *Store) warnf(format string, args ...any) {
	s.mu.Lock()
	logf := s.logf
	s.mu.Unlock()
	logf(format, args...)
}
