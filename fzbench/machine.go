package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// fingerprint identifies the machine and build a result came from, so
// figures from different boxes are never compared unawares.
func fingerprint() map[string]any {
	fp := map[string]any{
		"cpu_model":  "unknown",
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_sha":    "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				fp["cpu_model"] = strings.TrimSpace(v)
			case "cpu MHz":
				fp["cpu_mhz"] = strings.TrimSpace(v)
			}
			if fp["cpu_model"] != "unknown" && fp["cpu_mhz"] != nil {
				break
			}
		}
		f.Close()
	}
	if sum, err := sourceHash("."); err == nil {
		fp["source_sha256"] = sum
	}
	// go build stamps the revision when it builds inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["git_sha"] = s.Value
			case "vcs.modified":
				fp["git_modified"] = s.Value == "true"
			}
		}
	}
	return fp
}

// sourceHash digests every Go source and go.mod file under root (skipping
// hidden directories such as the build directory), so a run from a
// checkout without git history still names the code it measured.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// rssSampler records the highest resident set size it sees, polling the
// process's own statm, until it is stopped.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64 // bytes since the last takePeak
}

// rssInterval is how often the sampler polls. The Go heap grows by a few
// MB at most between polls, well under the spread between runs.
const rssInterval = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak.Store(currentRSS())
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			cur := currentRSS()
			for p := s.peak.Load(); cur > p && !s.peak.CompareAndSwap(p, cur); p = s.peak.Load() {
			}
		}
	}()
	return s
}

// takePeak returns the peak since the last call, in MiB, and starts a new
// window.
func (s *rssSampler) takePeak() float64 {
	return float64(s.peak.Swap(currentRSS())) / (1 << 20)
}

// stop ends the sampling and waits for the sampler to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// currentRSS reads the resident set size from /proc/self/statm (0 if it
// cannot).
func currentRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// closedLoop runs op(i) for every i in [0, n) on `callers` goroutines, each
// taking the next index as soon as its previous op returns, and returns
// every op's latency by index. It stops claiming indices after the first
// error, which it returns.
func closedLoop(ctx context.Context, callers, n int, op func(ctx context.Context, i int) error) ([]time.Duration, error) {
	lat := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for c := 0; c < min(callers, n); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				start := time.Now()
				err := op(ctx, i)
				lat[i] = time.Since(start)
				if err != nil {
					once.Do(func() { firstErr = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return lat, firstErr
}

// innerSplit divides a worker budget among n concurrently running tasks
// the way the analysis engine's fan-outs do (one worker each once tasks
// outnumber workers).
func innerSplit(workers, n int) int {
	if n > workers {
		return 1
	}
	return workers / max(n, 1)
}

// cpuStat is the machine-wide CPU time split from /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user .. steal; guest time is already in user
			st.total += n
		}
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealShareSince is the share of CPU time the hypervisor took from this
// machine since before: a noisy-neighbour indicator for the run.
func (s cpuStat) stealShareSince(before cpuStat) float64 {
	if s.total <= before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}

// processCPU is the CPU time, user and system, that every thread of this
// process has used so far. Time the hypervisor steals from the machine is
// not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
