package profiler

import (
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/sealed"
)

// refDecodeResult is the reference FZPR decoder, the oracle of the
// in-place sample loop: each sample is built in a local, its counters come
// back as a 104-byte value from refCounterDelta, and it is appended to a
// slice whose capacity the sample-count guard bounds at one sample per
// payload byte. It reads every field through the shared sealed.Reader
// (Uvarint, U64, String), which DecodeResult's sample loop does not use,
// and it reads BBV rows entry by entry rather than through Reader.Row.
// BBV rows re-encode to their own bytes even when their PCs repeat or a
// count is out of range, and a sample's kernel byte is set by its EIP, so
// the reference rejects such rows and kernel bytes itself, as
// DecodeResult must.
func refDecodeResult(data []byte) (*CollectResult, error) {
	d, err := sealed.Open(data, resultMagic, resultVersion, ErrCorrupt, ErrUnsupportedVersion)
	if err != nil {
		return nil, err
	}

	p := &Profile{}
	p.Workload = d.String()
	p.Machine = d.String()
	p.Period = d.Uvarint()
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(len(d.Rest())) { // >=1 byte per sample
		return nil, fmt.Errorf("%w: sample count %d exceeds payload", ErrCorrupt, n)
	}
	p.Samples = make([]Sample, 0, n)
	var prev cpu.Counters
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var s Sample
		s.EIP = d.U64()
		s.Thread = int(d.Uvarint())
		want := byte(0)
		if addr.IsKernel(s.EIP) {
			want = 1
		}
		if k := refByte(d); d.Err() == nil && k != want {
			return nil, fmt.Errorf("%w: sample %d: kernel byte %#x for EIP %#x", ErrCorrupt, i, k, s.EIP)
		}
		s.Counters = refCounterDelta(d, prev)
		prev = s.Counters
		p.Samples = append(p.Samples, s)
	}

	res := &CollectResult{Profile: p}
	res.Counters = refCounterDelta(d, cpu.Counters{})
	res.OS = readOSStats(d)
	res.Seconds = math.Float64frombits(d.U64())
	res.MemRefsDropped = d.Uvarint()

	nr := d.Uvarint()
	if d.Err() == nil && nr > uint64(len(d.Rest())) {
		return nil, fmt.Errorf("%w: region count %d exceeds payload", ErrCorrupt, nr)
	}
	regions := make([]addr.Region, 0, nr)
	for i := uint64(0); i < nr && d.Err() == nil; i++ {
		var r addr.Region
		r.Name = d.String()
		r.Base = d.U64()
		r.Size = d.Uvarint()
		regions = append(regions, r)
	}
	res.Space = addr.SpaceFromRegions(regions)

	nv := d.Uvarint()
	if d.Err() == nil && nv > uint64(len(d.Rest())) {
		return nil, fmt.Errorf("%w: BBV count %d exceeds payload", ErrCorrupt, nv)
	}
	if nv > 0 {
		res.BBV = make([]BlockVector, 0, nv)
	}
	for i := uint64(0); i < nv && d.Err() == nil; i++ {
		var v BlockVector
		v.Index = int(d.Uvarint())
		v.CPI = math.Float64frombits(d.U64())
		nc := d.Uvarint()
		if d.Err() == nil && nc > uint64(len(d.Rest())) {
			return nil, fmt.Errorf("%w: BBV entry count %d exceeds payload", ErrCorrupt, nc)
		}
		// Rows are non-nil even when empty, as the profiler's BBV builder
		// and DecodeResult make them.
		v.PCs, v.Counts = make([]uint64, 0, nc), make([]int64, 0, nc)
		pc := uint64(0)
		for j := uint64(0); j < nc && d.Err() == nil; j++ {
			next := pc + d.Uvarint()
			if d.Err() == nil && j > 0 && next <= pc {
				return nil, fmt.Errorf("%w: BBV %d: PCs not increasing", ErrCorrupt, i)
			}
			pc = next
			c := d.Uvarint()
			if d.Err() == nil && (c == 0 || c > math.MaxInt32) {
				return nil, fmt.Errorf("%w: BBV %d: count %d outside [1, %d]", ErrCorrupt, i, c, math.MaxInt32)
			}
			v.PCs = append(v.PCs, pc)
			v.Counts = append(v.Counts, int64(c))
		}
		res.BBV = append(res.BBV, v)
	}

	if err := d.Done(); err != nil {
		return nil, err
	}
	return res, nil
}

// refCounterDelta reads one delta-encoded counter snapshot through the
// sticky-error field reader and returns prev plus the deltas.
func refCounterDelta(d *sealed.Reader, prev cpu.Counters) cpu.Counters {
	return cpu.Counters{
		Insts:        prev.Insts + d.Uvarint(),
		Cycles:       prev.Cycles + d.Uvarint(),
		WorkCycles:   prev.WorkCycles + d.Uvarint(),
		FECycles:     prev.FECycles + d.Uvarint(),
		EXECycles:    prev.EXECycles + d.Uvarint(),
		OtherCycles:  prev.OtherCycles + d.Uvarint(),
		Branches:     prev.Branches + d.Uvarint(),
		Mispredicts:  prev.Mispredicts + d.Uvarint(),
		PrefetchHits: prev.PrefetchHits + d.Uvarint(),
		L1DMisses:    prev.L1DMisses + d.Uvarint(),
		L2Misses:     prev.L2Misses + d.Uvarint(),
		L3Misses:     prev.L3Misses + d.Uvarint(),
		L1IMisses:    prev.L1IMisses + d.Uvarint(),
	}
}

// refByte reads one byte, as the reference sample loop reads the kernel
// byte.
func refByte(d *sealed.Reader) byte {
	var b byte
	if rest := d.Rest(); len(rest) > 0 {
		b = rest[0]
	}
	d.Skip(1)
	return b
}
