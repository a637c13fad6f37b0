package profiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
)

// The binary CollectResult codec is the profile store's on-disk format: a
// complete collection run — samples with full counter snapshots, scheduler
// stats, the address-space layout for symbolization, and optional
// basic-block vectors — in one self-verifying blob.
//
//	"FZPR" | uvarint version | payload | crc32-Castagnoli (4 bytes LE)
//
// The checksum covers everything before it, so truncation and bit rot are
// detected before any field is trusted. Castagnoli is hardware-accelerated
// on amd64/arm64, so checking it is a few percent of a disk-warm read;
// 32 bits is ample for a cache that recomputes on any mismatch. What
// bounds a disk-warm read of a large entry is the decode itself: parsing
// 14 varints per sample and writing each 128-byte Sample, which the
// sample loop does in place (decoder.samples). The encoding is
// deterministic (BBV rows are already in PC order, floats are stored as
// IEEE bit patterns): encoding the same result twice yields identical
// bytes, which is what lets the golden harness assert byte-identical
// analyses through the store.
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
const resultVersion = 2

// ErrCorrupt marks an entry that failed structural or checksum
// validation; the store responds by recomputing and overwriting.
var ErrCorrupt = errors.New("profiler: corrupt profile-store entry")

// ErrUnsupportedVersion marks an entry written by a different codec
// version; the store treats it like a miss.
var ErrUnsupportedVersion = errors.New("profiler: unsupported profile-store entry version")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeResult serializes res into a self-verifying binary blob.
func EncodeResult(res *CollectResult) []byte {
	// Conservative size guess: ~24B per delta-encoded sample plus fixed
	// overhead; resized by append as needed.
	buf := make([]byte, 0, 64+24*len(res.Profile.Samples))
	buf = append(buf, resultMagic...)
	buf = binary.AppendUvarint(buf, resultVersion)

	p := res.Profile
	buf = appendString(buf, p.Workload)
	buf = appendString(buf, p.Machine)
	buf = binary.AppendUvarint(buf, p.Period)
	buf = binary.AppendUvarint(buf, uint64(len(p.Samples)))
	var prev cpu.Counters
	for i := range p.Samples {
		s := &p.Samples[i]
		buf = binary.LittleEndian.AppendUint64(buf, s.EIP)
		buf = binary.AppendUvarint(buf, uint64(s.Thread))
		if s.Kernel {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
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
		buf = appendString(buf, r.Name)
		buf = binary.LittleEndian.AppendUint64(buf, r.Base)
		buf = binary.AppendUvarint(buf, r.Size)
	}

	buf = binary.AppendUvarint(buf, uint64(len(res.BBV)))
	for i := range res.BBV {
		v := &res.BBV[i]
		buf = binary.AppendUvarint(buf, uint64(v.Index))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.CPI))
		buf = binary.AppendUvarint(buf, uint64(len(v.PCs)))
		prevPC := uint64(0)
		for j, pc := range v.PCs {
			buf = binary.AppendUvarint(buf, pc-prevPC)
			buf = binary.AppendUvarint(buf, uint64(v.Counts[j]))
			prevPC = pc
		}
	}

	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// DecodeResult deserializes a blob written by EncodeResult. It verifies
// the checksum before trusting any field; structural damage comes back as
// ErrCorrupt and foreign versions as ErrUnsupportedVersion, so callers can
// distinguish "recompute and overwrite" from "written by another build".
// It accepts only the bytes EncodeResult writes: an overlong varint, a
// kernel byte other than 0 or 1, regions out of base order, a BBV PC
// that does not increase, or a BBV count outside [1, MaxInt32] is
// ErrCorrupt, so an entry's bytes identify its content and its BBV rows
// index without error.
func DecodeResult(data []byte) (*CollectResult, error) {
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
	if d.err == nil && n > uint64(len(d.buf)/minSampleBytes) {
		return nil, fmt.Errorf("%w: sample count %d exceeds payload", ErrCorrupt, n)
	}
	p.Samples = make([]Sample, n)
	d.samples(p.Samples)

	res := &CollectResult{Profile: p}
	res.Counters = d.counters()
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
		if d.err == nil && i > 0 && r.Base < regions[i-1].Base {
			return nil, fmt.Errorf("%w: region %d out of base order", ErrCorrupt, i)
		}
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
		v.PCs, v.Counts = make([]uint64, 0, nc), make([]int64, 0, nc)
		pc := uint64(0)
		for j := uint64(0); j < nc && d.err == nil; j++ {
			next, c := pc+d.uvarint(), d.uvarint()
			if d.err == nil && (j > 0 && next <= pc || c == 0 || c > math.MaxInt32) {
				return nil, fmt.Errorf("%w: BBV %d entry %d: PC not increasing or count %d outside [1, %d]", ErrCorrupt, i, j, c, math.MaxInt32)
			}
			pc = next
			v.PCs, v.Counts = append(v.PCs, pc), append(v.Counts, int64(c))
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

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendCounterDelta writes c - prev field by field. Keep the field order
// in lockstep with counterDeltaAt; any change to cpu.Counters must
// be mirrored here AND bump resultVersion.
func appendCounterDelta(buf []byte, c, prev cpu.Counters) []byte {
	d := c.Sub(prev)
	for _, v := range []uint64{
		d.Insts, d.Cycles,
		d.WorkCycles, d.FECycles, d.EXECycles, d.OtherCycles,
		d.Branches, d.Mispredicts, d.PrefetchHits,
		d.L1DMisses, d.L2Misses, d.L3Misses, d.L1IMisses,
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

// decoder walks the payload with a sticky error, so decode code reads
// linearly and corruption is reported once at the end of each section.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload truncated or varint malformed", ErrCorrupt)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, off := uvarintAt(d.buf, 0)
	if off > len(d.buf) {
		d.fail()
		return 0
	}
	d.buf = d.buf[off:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// minSampleBytes is the smallest encoded sample: the 8-byte EIP, a
// one-byte thread varint, the kernel byte and 13 one-byte counter
// varints. Bounding the sample count by it bounds what a sealed but
// hostile entry can make DecodeResult allocate: 128 bytes of Sample per
// 23 payload bytes.
const minSampleBytes = 8 + 1 + 1 + 13

// samples decodes len(out) samples into out in place. Fields are read at
// a local offset, and a failed read leaves that offset past the end of
// the buffer, where every later read fails too (uvarintAt), so truncation
// is checked once per sample rather than once per field.
func (d *decoder) samples(out []Sample) {
	if d.err != nil {
		return
	}
	buf, off := d.buf, 0
	prev := &cpu.Counters{}
	for i := range out {
		s := &out[i]
		if len(buf)-off < 8 {
			d.fail()
			return
		}
		s.EIP = binary.LittleEndian.Uint64(buf[off:])
		var thread uint64
		thread, off = uvarintAt(buf, off+8)
		s.Thread = int(thread)
		if off < len(buf) {
			if buf[off] > 1 {
				d.err = fmt.Errorf("%w: sample %d: kernel byte %#x", ErrCorrupt, i, buf[off])
				return
			}
			s.Kernel = buf[off] == 1
		}
		off = counterDeltaAt(buf, off+1, &s.Counters, prev)
		if off > len(buf) {
			d.fail()
			return
		}
		prev = &s.Counters
	}
	d.buf = buf[off:]
}

// counters reads a counter snapshot delta-encoded against zero.
func (d *decoder) counters() cpu.Counters {
	var c cpu.Counters
	if d.err != nil {
		return c
	}
	off := counterDeltaAt(d.buf, 0, &c, &cpu.Counters{})
	if off > len(d.buf) {
		d.fail()
		return c
	}
	d.buf = d.buf[off:]
	return c
}

// counterDeltaAt reads the 13 counter deltas at buf[off:] into c, each
// added to prev's field, in appendCounterDelta's order, and returns the
// offset past them (past the end of buf if any read failed).
func counterDeltaAt(buf []byte, off int, c, prev *cpu.Counters) int {
	var v [13]uint64
	for j := range v {
		// Most counter deltas fit in one byte. The branch is written out
		// here because a helper that also calls the slow path exceeds the
		// compiler's inlining budget.
		if off < len(buf) && buf[off] < 0x80 {
			v[j], off = uint64(buf[off]), off+1
		} else {
			v[j], off = uvarintAt(buf, off)
		}
	}
	c.Insts = prev.Insts + v[0]
	c.Cycles = prev.Cycles + v[1]
	c.WorkCycles = prev.WorkCycles + v[2]
	c.FECycles = prev.FECycles + v[3]
	c.EXECycles = prev.EXECycles + v[4]
	c.OtherCycles = prev.OtherCycles + v[5]
	c.Branches = prev.Branches + v[6]
	c.Mispredicts = prev.Mispredicts + v[7]
	c.PrefetchHits = prev.PrefetchHits + v[8]
	c.L1DMisses = prev.L1DMisses + v[9]
	c.L2Misses = prev.L2Misses + v[10]
	c.L3Misses = prev.L3Misses + v[11]
	c.L1IMisses = prev.L1IMisses + v[12]
	return off
}

// uvarintAt reads the uvarint at buf[off:] and returns it with the offset
// just past it. Any failure (off at or past the end, a truncated varint,
// one that overflows 64 bits, an overlong one whose last byte is zero)
// returns the offset len(buf)+1, from which every later read fails as
// well.
func uvarintAt(buf []byte, off int) (uint64, int) {
	if off < len(buf) {
		if v, n := binary.Uvarint(buf[off:]); n == 1 || n > 1 && buf[off+n-1] != 0 {
			return v, off + n
		}
	}
	return 0, len(buf) + 1
}

func (d *decoder) osStats() osim.Stats {
	return osim.Stats{
		ContextSwitches: d.uvarint(),
		Voluntary:       d.uvarint(),
		Involuntary:     d.uvarint(),
		KernelInsts:     d.uvarint(),
		UserInsts:       d.uvarint(),
		IdleCycles:      d.uvarint(),
		IOWaits:         d.uvarint(),
	}
}
