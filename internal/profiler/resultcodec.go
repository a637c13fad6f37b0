package profiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
	"repro/internal/sealed"
)

// The binary CollectResult codec is the profile store's on-disk format: a
// complete collection run — samples with their counter snapshots, scheduler
// stats, the address-space layout for symbolization, and optional
// basic-block vectors — as the payload of one sealed frame (package
// sealed: magic "FZPR", version, payload, CRC-32C footer). A sample is
// its 8-byte EIP, a thread varint and the six counter deltas; whether it
// hit kernel code follows from the EIP. What bounds a disk-warm read of a
// large entry is the decode itself, parsing those 7 varints per sample
// and writing each 64-byte Sample, which the sample loop does in place
// (readSamples). The encoding is deterministic (BBV
// rows are already in PC order, floats are stored as IEEE bit patterns):
// encoding the same result twice yields identical bytes, which is what
// lets the golden harness assert byte-identical analyses through the
// store.
//
// Counter snapshots are delta-encoded against the previous sample: every
// cpu.Counters field is monotone over a run, so consecutive deltas are
// small and uvarint-compress to a fraction of raw u64s.

// resultMagic identifies a profile-store entry.
const resultMagic = "FZPR"

// resultVersion is the payload layout version. Bump it on ANY layout
// change — including field additions to cpu.Counters or osim.Stats, which
// the codec spells out field by field below — so old entries are rejected
// (and transparently recomputed) instead of misdecoded.
const resultVersion = 3

// ErrCorrupt marks an entry that failed structural or checksum
// validation; the store responds by recomputing and overwriting.
var ErrCorrupt = errors.New("profiler: corrupt profile-store entry")

// ErrUnsupportedVersion marks an entry written by a different codec
// version; the store treats it like a miss.
var ErrUnsupportedVersion = errors.New("profiler: unsupported profile-store entry version")

// EncodeResult serializes res into a self-verifying binary blob.
func EncodeResult(res *CollectResult) []byte {
	// Size guess, so that nearly every encode fits its first allocation
	// (which the profile store's memory tier retains): on the 60 entries
	// `make verify-results-store` writes, a sample took 16.5–21.7 bytes
	// (at most 20.0 in all but two mcf entries), and a BBV entry 2.1–2.6
	// bytes plus a header of about 16 bytes per vector.
	size := 64 + len(res.Profile.Samples)*81/4 // 20.25 bytes per sample
	for i := range res.BBV {
		size += 16 + len(res.BBV[i].PCs)*13/5
	}
	buf := sealed.Begin(make([]byte, 0, size), resultMagic, resultVersion)

	p := res.Profile
	buf = sealed.AppendString(buf, p.Workload)
	buf = sealed.AppendString(buf, p.Machine)
	buf = binary.AppendUvarint(buf, p.Period)
	buf = binary.AppendUvarint(buf, uint64(len(p.Samples)))
	var prev cpu.Counters
	for i := range p.Samples {
		s := &p.Samples[i]
		buf = binary.LittleEndian.AppendUint64(buf, s.EIP)
		buf = binary.AppendUvarint(buf, uint64(s.Thread))
		buf = appendCounterDelta(buf, s.Counters, prev)
		prev = s.Counters
	}

	buf = appendCounterDelta(buf, res.Counters, cpu.Counters{})
	buf = appendOSStats(buf, res.OS)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Seconds))
	buf = binary.AppendUvarint(buf, res.MemRefsDropped)

	var regions []addr.Region
	if res.Space != nil {
		regions = res.Space.Regions()
	}
	buf = binary.AppendUvarint(buf, uint64(len(regions)))
	for _, r := range regions {
		buf = sealed.AppendString(buf, r.Name)
		buf = binary.LittleEndian.AppendUint64(buf, r.Base)
		buf = binary.AppendUvarint(buf, r.Size)
	}

	buf = binary.AppendUvarint(buf, uint64(len(res.BBV)))
	for i := range res.BBV {
		v := &res.BBV[i]
		buf = binary.AppendUvarint(buf, uint64(v.Index))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.CPI))
		buf = sealed.AppendRow(buf, v.PCs, v.Counts)
	}
	return sealed.Seal(buf)
}

// DecodeResult deserializes a blob written by EncodeResult. It verifies
// the checksum before trusting any field; structural damage comes back as
// ErrCorrupt and foreign versions as ErrUnsupportedVersion, so callers can
// distinguish "recompute and overwrite" from "written by another build".
// It accepts only the bytes EncodeResult writes: an overlong varint,
// regions out of base order, a BBV PC that does not increase, or a BBV
// count outside [1, MaxInt32] is ErrCorrupt, so an entry's bytes identify
// its content and its BBV rows index without error.
func DecodeResult(data []byte) (*CollectResult, error) {
	d, err := sealed.Open(data, resultMagic, resultVersion, ErrCorrupt, ErrUnsupportedVersion)
	if err != nil {
		return nil, err
	}

	p := &Profile{}
	p.Workload = d.String()
	p.Machine = d.String()
	p.Period = d.Uvarint()
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(len(d.Rest())/minSampleBytes) {
		return nil, fmt.Errorf("%w: sample count %d exceeds payload", ErrCorrupt, n)
	}
	p.Samples = make([]Sample, n)
	if err := readSamples(d, p.Samples); err != nil {
		return nil, err
	}

	res := &CollectResult{Profile: p}
	d.Skip(counterDeltaAt(d.Rest(), 0, &res.Counters, &cpu.Counters{}))
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
		if d.Err() == nil && i > 0 && r.Base < regions[i-1].Base {
			return nil, fmt.Errorf("%w: region %d out of base order", ErrCorrupt, i)
		}
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
		v.PCs, v.Counts = d.Row(nil)
		res.BBV = append(res.BBV, v)
	}

	if err := d.Done(); err != nil {
		return nil, err
	}
	return res, nil
}

// appendCounterDelta writes c - prev field by field. Keep the field order
// in lockstep with counterDeltaAt; any change to cpu.Counters must
// be mirrored here AND bump resultVersion.
func appendCounterDelta(buf []byte, c, prev cpu.Counters) []byte {
	d := c.Sub(prev)
	for _, v := range []uint64{
		d.Insts, d.Cycles,
		d.WorkCycles, d.FECycles, d.EXECycles, d.OtherCycles,
	} {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// appendOSStats writes every osim.Stats field; same lockstep/versioning
// rule as appendCounterDelta.
func appendOSStats(buf []byte, s osim.Stats) []byte {
	for _, v := range []uint64{
		s.ContextSwitches, s.Voluntary, s.Involuntary,
		s.KernelInsts, s.UserInsts, s.IdleCycles, s.IOWaits,
	} {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// minSampleBytes is the smallest encoded sample: the 8-byte EIP, a
// one-byte thread varint and 6 one-byte counter varints. Bounding the
// sample count by it bounds what a sealed but hostile entry can make
// DecodeResult allocate: 64 bytes of Sample per 15 payload bytes.
const minSampleBytes = 8 + 1 + 6

// readSamples decodes len(out) samples from d into out in place. Fields
// are read at a local offset, and a failed read leaves that offset past
// the end of the buffer, where every later read fails too
// (sealed.UvarintAt), so truncation is checked once per sample rather
// than once per field.
func readSamples(d *sealed.Reader, out []Sample) error {
	buf, off := d.Rest(), 0
	prev := &cpu.Counters{}
	for i := range out {
		s := &out[i]
		if len(buf)-off < 8 {
			off = len(buf) + 1
			break
		}
		s.EIP = binary.LittleEndian.Uint64(buf[off:])
		var thread uint64
		thread, off = sealed.UvarintAt(buf, off+8)
		s.Thread = int(thread)
		off = counterDeltaAt(buf, off, &s.Counters, prev)
		if off > len(buf) {
			break
		}
		prev = &s.Counters
	}
	d.Skip(off)
	return d.Err()
}

// counterDeltaAt reads the 6 counter deltas at buf[off:] into c, each
// added to prev's field, in appendCounterDelta's order, and returns the
// offset past them (past the end of buf if any read failed).
func counterDeltaAt(buf []byte, off int, c, prev *cpu.Counters) int {
	var v [6]uint64
	for j := range v {
		// Most counter deltas fit in one byte. The branch is written out
		// here because a helper that also calls the slow path exceeds the
		// compiler's inlining budget.
		if off < len(buf) && buf[off] < 0x80 {
			v[j], off = uint64(buf[off]), off+1
		} else {
			v[j], off = sealed.UvarintAt(buf, off)
		}
	}
	c.Insts = prev.Insts + v[0]
	c.Cycles = prev.Cycles + v[1]
	c.WorkCycles = prev.WorkCycles + v[2]
	c.FECycles = prev.FECycles + v[3]
	c.EXECycles = prev.EXECycles + v[4]
	c.OtherCycles = prev.OtherCycles + v[5]
	return off
}

func readOSStats(d *sealed.Reader) osim.Stats {
	return osim.Stats{
		ContextSwitches: d.Uvarint(),
		Voluntary:       d.Uvarint(),
		Involuntary:     d.Uvarint(),
		KernelInsts:     d.Uvarint(),
		UserInsts:       d.Uvarint(),
		IdleCycles:      d.Uvarint(),
		IOWaits:         d.Uvarint(),
	}
}
