package profiler

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/addr"
	"repro/internal/cpu"
)

// refDecodeResult is the reference FZPR decoder, the oracle of the
// in-place sample loop: each sample is built in a local, its counters come
// back as a 104-byte value from refCounterDelta, and it is appended to a
// slice whose capacity the sample-count guard bounds at one sample per
// payload byte. It shares the decoder's field readers (uvarint, u64,
// string, osStats), which the sample loop does not use. BBV rows re-encode
// to their own bytes even when their PCs repeat or a count is out of
// range, so the reference rejects those rows itself, as DecodeResult must.
func refDecodeResult(data []byte) (*CollectResult, error) {
	if len(data) < len(resultMagic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any entry", ErrCorrupt, len(data))
	}
	if string(data[:len(resultMagic)]) != resultMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if sum := crc32.Checksum(body, crcTable); sum != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &decoder{buf: body[len(resultMagic):]}
	if v := d.uvarint(); v != resultVersion {
		return nil, fmt.Errorf("%w: entry version %d, this build reads %d", ErrUnsupportedVersion, v, resultVersion)
	}

	p := &Profile{}
	p.Workload = d.string()
	p.Machine = d.string()
	p.Period = d.uvarint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) { // >=1 byte per sample
		return nil, fmt.Errorf("%w: sample count %d exceeds payload", ErrCorrupt, n)
	}
	p.Samples = make([]Sample, 0, n)
	var prev cpu.Counters
	for i := uint64(0); i < n && d.err == nil; i++ {
		var s Sample
		s.EIP = d.u64()
		s.Thread = int(d.uvarint())
		s.Kernel = d.byte() != 0
		s.Counters = refCounterDelta(d, prev)
		prev = s.Counters
		p.Samples = append(p.Samples, s)
	}

	res := &CollectResult{Profile: p}
	res.Counters = refCounterDelta(d, cpu.Counters{})
	res.OS = d.osStats()
	res.Seconds = math.Float64frombits(d.u64())
	res.MemRefsDropped = d.uvarint()

	nr := d.uvarint()
	if d.err == nil && nr > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: region count %d exceeds payload", ErrCorrupt, nr)
	}
	regions := make([]addr.Region, 0, nr)
	for i := uint64(0); i < nr && d.err == nil; i++ {
		var r addr.Region
		r.Name = d.string()
		r.Base = d.u64()
		r.Size = d.uvarint()
		regions = append(regions, r)
	}
	res.Space = addr.SpaceFromRegions(regions)

	nv := d.uvarint()
	if d.err == nil && nv > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: BBV count %d exceeds payload", ErrCorrupt, nv)
	}
	if nv > 0 {
		res.BBV = make([]BlockVector, 0, nv)
	}
	for i := uint64(0); i < nv && d.err == nil; i++ {
		var v BlockVector
		v.Index = int(d.uvarint())
		v.CPI = math.Float64frombits(d.u64())
		nc := d.uvarint()
		if d.err == nil && nc > uint64(len(d.buf)) {
			return nil, fmt.Errorf("%w: BBV entry count %d exceeds payload", ErrCorrupt, nc)
		}
		// Rows are non-nil even when empty, as the profiler's BBV builder
		// and DecodeResult make them.
		v.PCs, v.Counts = make([]uint64, 0, nc), make([]int64, 0, nc)
		pc := uint64(0)
		for j := uint64(0); j < nc && d.err == nil; j++ {
			next := pc + d.uvarint()
			if d.err == nil && j > 0 && next <= pc {
				return nil, fmt.Errorf("%w: BBV %d: PCs not increasing", ErrCorrupt, i)
			}
			pc = next
			c := d.uvarint()
			if d.err == nil && (c == 0 || c > math.MaxInt32) {
				return nil, fmt.Errorf("%w: BBV %d: count %d outside [1, %d]", ErrCorrupt, i, c, math.MaxInt32)
			}
			v.PCs = append(v.PCs, pc)
			v.Counts = append(v.Counts, int64(c))
		}
		res.BBV = append(res.BBV, v)
	}

	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return res, nil
}

// refCounterDelta reads one delta-encoded counter snapshot through the
// sticky-error field reader and returns prev plus the deltas.
func refCounterDelta(d *decoder, prev cpu.Counters) cpu.Counters {
	return cpu.Counters{
		Insts:        prev.Insts + d.uvarint(),
		Cycles:       prev.Cycles + d.uvarint(),
		WorkCycles:   prev.WorkCycles + d.uvarint(),
		FECycles:     prev.FECycles + d.uvarint(),
		EXECycles:    prev.EXECycles + d.uvarint(),
		OtherCycles:  prev.OtherCycles + d.uvarint(),
		Branches:     prev.Branches + d.uvarint(),
		Mispredicts:  prev.Mispredicts + d.uvarint(),
		PrefetchHits: prev.PrefetchHits + d.uvarint(),
		L1DMisses:    prev.L1DMisses + d.uvarint(),
		L2Misses:     prev.L2Misses + d.uvarint(),
		L3Misses:     prev.L3Misses + d.uvarint(),
		L1IMisses:    prev.L1IMisses + d.uvarint(),
	}
}

// byte reads one byte, as the reference sample loop reads the kernel flag.
func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}
