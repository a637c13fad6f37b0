package profstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/profiler"
)

// fakeResult fabricates a small, deterministic CollectResult so the store
// can be exercised without running the simulator.
func fakeResult(seed uint64) *profiler.CollectResult {
	p := &profiler.Profile{Workload: fmt.Sprintf("fake-%d", seed), Machine: "itanium2", Period: 1000}
	var c cpu.Counters
	for i := 0; i < 50; i++ {
		c.Insts += 1000
		c.Cycles += 1500 + seed%7
		c.Branches += 120
		c.L1DMisses += uint64(i) % 5
		p.Samples = append(p.Samples, profiler.Sample{
			EIP:      0x400000 + uint64(i)*64 + seed,
			Thread:   i % 3,
			Counters: c,
		})
	}
	space := addr.NewSpace()
	space.AllocCode("fake.main", 4096)
	space.AllocData("fake.heap", 1<<16)
	return &profiler.CollectResult{
		Profile:  p,
		Counters: c,
		Seconds:  1.25,
		Space:    space,
	}
}

// sameResult reports whether got equals want in every field the FZPR
// codec keeps: a decoded Space carries the regions, not the block-ID
// table the simulator interned while it ran.
func sameResult(got, want *profiler.CollectResult) bool {
	if got == nil || want == nil {
		return got == want
	}
	g, w := *got, *want
	g.Space, w.Space = nil, nil
	return reflect.DeepEqual(g, w) && reflect.DeepEqual(got.Space.Regions(), want.Space.Regions())
}

func testKey(name string) Key {
	return Key{Workload: name, Machine: cpu.Itanium2(), Seed: 1, Intervals: 320}
}

// counter wraps a compute function, counting invocations.
type counter struct {
	n   atomic.Int64
	res *profiler.CollectResult
	err error
}

func (c *counter) compute(context.Context) (*profiler.CollectResult, error) {
	c.n.Add(1)
	return c.res, c.err
}

func entryPath(t *testing.T, dir string, k Key) string {
	t.Helper()
	return filepath.Join(dir, k.Hash()+entryExt)
}

func TestKeyCanonicalDistinguishesFields(t *testing.T) {
	base := testKey("w")
	mods := []func(*Key){
		func(k *Key) { k.Workload = "w2" },
		func(k *Key) { k.Seed = 2 },
		func(k *Key) { k.Intervals = 321 },
		func(k *Key) { k.PeriodOverride = 500 },
		func(k *Key) { k.BuildBBV = true },
		func(k *Key) { k.BuildBBV = true; k.BBVIntervalInsts = 1 },
		func(k *Key) { k.Machine = cpu.Config{Name: "other"} },
	}
	seen := map[string]bool{base.Canonical(): true}
	for i, mod := range mods {
		k := base
		mod(&k)
		c := k.Canonical()
		if seen[c] {
			t.Errorf("mod %d: canonical form %q collides", i, c)
		}
		seen[c] = true
		if k.Hash() == base.Hash() {
			t.Errorf("mod %d: hash collides with base", i)
		}
	}
	if base.Hash() != base.Hash() {
		t.Error("Hash is not deterministic")
	}
}

// TestTierTransitions walks one key through all three tiers: recompute on
// first sight, memory on repeat, disk after the memory tier is dropped.
func TestTierTransitions(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	key := testKey("w")
	c := &counter{res: fakeResult(7)}

	got, err := s.Get(context.Background(), key, c.compute)
	if err != nil {
		t.Fatal(err)
	}
	if got != c.res {
		t.Fatal("first Get did not return the computed result")
	}
	if n := c.n.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if _, err := os.Stat(entryPath(t, dir, key)); err != nil {
		t.Fatalf("entry not persisted: %v", err)
	}

	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	if n := c.n.Load(); n != 1 {
		t.Fatalf("memory tier missed: compute ran %d times", n)
	}

	s.DropMemory()
	got2, err := s.Get(context.Background(), key, c.compute)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.n.Load(); n != 1 {
		t.Fatalf("disk tier missed: compute ran %d times", n)
	}
	if !bytes.Equal(profiler.EncodeResult(got2), profiler.EncodeResult(c.res)) {
		t.Fatal("disk tier returned a different result")
	}

	st := s.Stats()
	if st.Misses != 1 || st.MemHits != 1 || st.DiskHits != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 mem hit / 1 disk hit / 1 write", st)
	}
	if st.BytesWritten == 0 {
		t.Fatal("BytesWritten not counted")
	}
}

// TestMemoryOnlyStore exercises the default (no dir) configuration.
func TestMemoryOnlyStore(t *testing.T) {
	s := New()
	key := testKey("w")
	c := &counter{res: fakeResult(1)}
	for i := 0; i < 3; i++ {
		if _, err := s.Get(context.Background(), key, c.compute); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.n.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	s.DropMemory()
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	if n := c.n.Load(); n != 2 {
		t.Fatalf("after DropMemory compute ran %d times total, want 2", n)
	}
	if st := s.Stats(); st.Writes != 0 || st.Dir != "" {
		t.Fatalf("memory-only store wrote to disk: %+v", st)
	}
}

// TestTruncatedEntryRecomputed damages an entry by truncation and checks
// the store recomputes, overwrites, and counts the corruption.
func TestTruncatedEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	var warned atomic.Int64
	s.SetLogf(func(string, ...any) { warned.Add(1) })
	key := testKey("w")
	c := &counter{res: fakeResult(3)}
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}

	path := entryPath(t, dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s.DropMemory()
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	if n := c.n.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2 (recompute after corruption)", n)
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Corruptions)
	}
	if warned.Load() == 0 {
		t.Fatal("corruption was not logged")
	}

	// The overwritten entry must be whole again.
	data2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profiler.DecodeResult(data2); err != nil {
		t.Fatalf("overwritten entry does not decode: %v", err)
	}
}

// TestChecksumMismatchRecomputed flips one payload byte.
func TestChecksumMismatchRecomputed(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	key := testKey("w")
	c := &counter{res: fakeResult(9)}
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s.DropMemory()
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	if n := c.n.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2", n)
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Corruptions)
	}
}

// TestConcurrentWritersAtomicRename hammers one key from two independent
// stores (two "processes") while a reader decodes the entry file between
// rounds: the atomic temp+rename protocol must never expose a torn entry.
func TestConcurrentWritersAtomicRename(t *testing.T) {
	dir := t.TempDir()
	key := testKey("w")
	path := filepath.Join(dir, key.Hash()+entryExt)

	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := New()
			if err := s.SetDir(dir); err != nil {
				t.Error(err)
				return
			}
			res := fakeResult(uint64(w))
			for i := 0; i < rounds; i++ {
				s.DropMemory() // force the write path every round
				_ = os.Remove(path)
				if _, err := s.Get(context.Background(), key, func(context.Context) (*profiler.CollectResult, error) {
					return res, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	stop := make(chan struct{})
	var reads, torn atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue // not yet written / just removed
			}
			reads.Add(1)
			if _, err := profiler.DecodeResult(data); err != nil {
				torn.Add(1)
				t.Errorf("read a torn entry: %v", err)
			}
		}
	}()
	wg.Wait()
	close(stop)
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads out of %d", torn.Load(), reads.Load())
	}
}

// TestUnwritableDirDegrades removes the store directory out from under the
// store: writes fail once, are disabled with a warning, and the store keeps
// serving from memory.
func TestUnwritableDirDegrades(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := New()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	var mu sync.Mutex
	s.SetLogf(func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	key := testKey("w")
	c := &counter{res: fakeResult(4)}
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatalf("Get must succeed when only persistence fails: %v", err)
	}
	st := s.Stats()
	if st.WriteFailures != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v, want exactly 1 write failure and 0 writes", st)
	}
	mu.Lock()
	nwarn := len(warnings)
	mu.Unlock()
	if nwarn != 1 {
		t.Fatalf("got %d warnings, want exactly 1: %q", nwarn, warnings)
	}

	// Memory tier still serves; further misses don't warn again.
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), testKey("w2"), (&counter{res: fakeResult(5)}).compute); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.WriteFailures != 1 {
		t.Fatalf("WriteFailures = %d after degrade, want still 1 (writes disabled)", st.WriteFailures)
	}
	mu.Lock()
	nwarn = len(warnings)
	mu.Unlock()
	if nwarn != 1 {
		t.Fatalf("degraded store warned again: %q", warnings)
	}

	// Re-attaching a good directory re-enables writes.
	good := t.TempDir()
	if err := s.SetDir(good); err != nil {
		t.Fatal(err)
	}
	s.DropMemory()
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Writes != 1 {
		t.Fatalf("Writes = %d after re-attach, want 1", st.Writes)
	}
}

// TestReadOnlyDir covers the permission-denied flavor of degradation.
// Meaningless as root (which bypasses permission checks), so it skips.
func TestReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	dir := t.TempDir()
	s := New()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(dir, 0o755) })
	if _, err := s.Get(context.Background(), testKey("w"), (&counter{res: fakeResult(6)}).compute); err != nil {
		t.Fatalf("Get must degrade, not fail: %v", err)
	}
	if st := s.Stats(); st.WriteFailures != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v, want 1 write failure", st)
	}
}

// TestSharedFlight checks concurrent Gets for one key share a computation.
func TestSharedFlight(t *testing.T) {
	s := New()
	key := testKey("w")
	var n atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (*profiler.CollectResult, error) {
		n.Add(1)
		close(started)
		<-release
		return fakeResult(1), nil
	}

	var wg sync.WaitGroup
	results := make([]*profiler.CollectResult, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := s.Get(context.Background(), key, compute)
		if err != nil {
			t.Error(err)
		}
		results[0] = r
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := s.Get(context.Background(), key, compute)
		if err != nil {
			t.Error(err)
		}
		results[1] = r
	}()
	// Second Get must be parked on the flight before release.
	for s.Stats().Shared == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", n.Load())
	}
	// Waiters share the flight, not a pointer: one takes the computed
	// result, the other decodes the retained bytes.
	for i, r := range results {
		if !sameResult(r, fakeResult(1)) {
			t.Fatalf("waiter %d got a result that differs from the computed one", i)
		}
	}
	if results[0] == results[1] {
		t.Fatal("both waiters got one shared pointer")
	}
}

// TestHitAfterMiss: the caller that ran the flight takes the computed
// result, and a later memory-tier hit decodes an equal copy of it.
func TestHitAfterMiss(t *testing.T) {
	s := New()
	key := testKey("w")
	c := &counter{res: fakeResult(5)}
	first, err := s.Get(context.Background(), key, c.compute)
	if err != nil {
		t.Fatal(err)
	}
	if first != c.res {
		t.Fatal("the flight's caller did not take the computed result")
	}
	hit, err := s.Get(context.Background(), key, c.compute)
	if err != nil {
		t.Fatal(err)
	}
	if c.n.Load() != 1 || s.Stats().MemHits != 1 {
		t.Fatalf("second Get was not a memory hit: %d computes, stats %+v", c.n.Load(), s.Stats())
	}
	if hit == c.res || !sameResult(hit, c.res) {
		t.Fatal("a memory hit must decode its own copy, equal to the computed result")
	}
}

// TestHitAfterDiskRead: the caller whose flight read the disk tier takes
// that decode, and a later memory-tier hit decodes an equal copy.
func TestHitAfterDiskRead(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	key := testKey("w")
	c := &counter{res: fakeResult(6)}
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	s.DropMemory()
	for i, what := range []string{"disk read", "memory hit"} {
		got, err := s.Get(context.Background(), key, c.compute)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, c.res) {
			t.Fatalf("the %s returned a result that differs from the computed one", what)
		}
		if st := s.Stats(); st.DiskHits != 1 || st.MemHits != uint64(i) {
			t.Fatalf("after the %s: stats %+v", what, st)
		}
	}
	if c.n.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", c.n.Load())
	}
}

// TestMemBytes: the memory tier retains a collection as its encoding,
// and reports that size.
func TestMemBytes(t *testing.T) {
	s := New()
	res := fakeResult(2)
	if _, err := s.Get(context.Background(), testKey("w"), (&counter{res: res}).compute); err != nil {
		t.Fatal(err)
	}
	want := int64(len(profiler.EncodeResult(res)))
	if got := s.Stats().MemBytes; got != want {
		t.Fatalf("MemBytes = %d, want the encoded size %d", got, want)
	}
	s.DropMemory()
	if got := s.Stats().MemBytes; got != 0 {
		t.Fatalf("MemBytes = %d after DropMemory, want 0", got)
	}
}

// TestFailedFlightNotRetained checks a compute error is returned but not
// cached: the next Get retries.
func TestFailedFlightNotRetained(t *testing.T) {
	s := New()
	key := testKey("w")
	boom := errors.New("boom")
	c := &counter{err: boom}
	if _, err := s.Get(context.Background(), key, c.compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	c2 := &counter{res: fakeResult(2)}
	if _, err := s.Get(context.Background(), key, c2.compute); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if c2.n.Load() != 1 {
		t.Fatal("failed flight was retained")
	}
}

// TestCancelDetachesAndAbortsFlight: a cancelled waiter returns promptly;
// as the last waiter it cancels the flight context, and the aborted flight
// is replaced on the next Get.
func TestCancelDetachesAndAbortsFlight(t *testing.T) {
	s := New()
	key := testKey("w")
	flightCancelled := make(chan struct{})
	compute := func(fctx context.Context) (*profiler.CollectResult, error) {
		<-fctx.Done()
		close(flightCancelled)
		return nil, fctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Get(ctx, key, compute)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-flightCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("flight context was not cancelled after last waiter left")
	}
	// The aborted flight must not satisfy the next Get.
	c := &counter{res: fakeResult(8)}
	if _, err := s.Get(context.Background(), key, c.compute); err != nil {
		t.Fatal(err)
	}
	if c.n.Load() != 1 {
		t.Fatal("aborted flight served a later Get")
	}
}

// TestMemCapEvicts bounds the memory tier and checks LRU eviction spills
// reads back to disk.
func TestMemCapEvicts(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	s.SetMemCap(1)
	k1, k2 := testKey("w1"), testKey("w2")
	c1 := &counter{res: fakeResult(1)}
	c2 := &counter{res: fakeResult(2)}
	if _, err := s.Get(context.Background(), k1, c1.compute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), k2, c2.compute); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("Entries = %d with cap 1, want 1", st.Entries)
	}
	// k1 was evicted → served from disk, not recomputed.
	if _, err := s.Get(context.Background(), k1, c1.compute); err != nil {
		t.Fatal(err)
	}
	if c1.n.Load() != 1 {
		t.Fatalf("evicted entry recomputed (%d) instead of read from disk", c1.n.Load())
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}
}

func TestStatsString(t *testing.T) {
	s := New()
	if got := s.Stats().String(); got == "" || !bytes.Contains([]byte(got), []byte("profile store:")) {
		t.Fatalf("Stats.String() = %q", got)
	}
}
