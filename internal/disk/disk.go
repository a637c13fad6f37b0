// Package disk models the storage subsystem of the paper's server: an
// array of striped data disks plus a dedicated log disk (§2.3). The model
// produces I/O service latencies in core cycles; the OS model turns those
// latencies into thread blocking time, which is what creates the voluntary
// context switching that characterizes OLTP (§5.2).
package disk

import (
	"fmt"

	"repro/internal/xrand"
)

// Config describes one disk's latency profile, in core cycles. The
// defaults are scaled to the repository's 1:1000 instruction scale so that
// I/O remains ~10^3-10^4x slower than a memory access, preserving the
// paper's regime where threads voluntarily yield on every miss to disk.
type Config struct {
	// SeekMean is the mean random-access service time.
	SeekMean float64
	// SeekJitter is the standard deviation around SeekMean.
	SeekJitter float64
	// Sequential is the service time for a sequential (readahead) access.
	Sequential float64
}

// DefaultData returns the latency profile of one data disk.
func DefaultData() Config {
	return Config{SeekMean: 60000, SeekJitter: 15000, Sequential: 4000}
}

// DefaultLog returns the latency profile of the log disk, which sees only
// sequential appends.
func DefaultLog() Config {
	return Config{SeekMean: 12000, SeekJitter: 2000, Sequential: 2500}
}

// Array is a striped set of disks. It is deterministic: latency jitter is
// drawn from an explicit RNG.
type Array struct {
	cfg    Config
	n      int
	rng    *xrand.Rand
	lastBy map[int]uint64 // disk -> last block accessed, for sequential detection
}

// NewArray builds an array of n disks with the given profile. It panics if
// n <= 0 or rng is nil.
func NewArray(cfg Config, n int, rng *xrand.Rand) *Array {
	if n <= 0 {
		panic(fmt.Sprintf("disk: NewArray n=%d", n))
	}
	if rng == nil {
		panic("disk: NewArray with nil rng")
	}
	return &Array{cfg: cfg, n: n, rng: rng, lastBy: make(map[int]uint64)}
}

// Read returns the service latency (cycles) for reading block. Blocks are
// striped across disks; an access following its predecessor on the same
// disk is serviced at the sequential rate.
func (a *Array) Read(block uint64) uint64 { return a.latency(block) }

// Write returns the service latency (cycles) for writing block.
func (a *Array) Write(block uint64) uint64 { return a.latency(block) }

func (a *Array) latency(block uint64) uint64 {
	d := int(block % uint64(a.n))
	last, seen := a.lastBy[d]
	a.lastBy[d] = block
	if seen && (block == last+uint64(a.n) || block == last) {
		return uint64(a.cfg.Sequential)
	}
	l := a.rng.Norm(a.cfg.SeekMean, a.cfg.SeekJitter)
	if l < a.cfg.Sequential {
		l = a.cfg.Sequential
	}
	return uint64(l)
}
