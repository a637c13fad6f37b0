package profilefmt

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Converters from foreign sample streams into EIPV profiles, so existing
// tooling output — a Go pprof CPU profile, a `perf script` dump — can
// enter the analysis without bespoke glue. Both are lossy adapters, not
// codecs: they reconstruct `(interval histogram, CPI)` rows from data
// that was not collected interval-aligned, and they say so in the
// profile's Name. When the source carries both a cycles and an
// instructions series, real per-row CPIs are derived; otherwise rows get
// the caller's defaultCPI (which makes the RE/quadrant output a
// code-signature-only view — documented in README "External profiles").

// convertIntervalInsts is the interval period stamped on converted
// profiles when the caller does not supply one.
const convertIntervalInsts = 100_000

// ---------------------------------------------------------------------
// pprof (Go runtime/pprof protobuf, optionally gzip-compressed)
// ---------------------------------------------------------------------

// The pprof profile.proto fields we consume. The full schema is large;
// everything else is skipped by wire type, so profiles from any pprof
// writer decode.
const (
	pprofFieldSampleType  = 1 // repeated ValueType
	pprofFieldSample      = 2 // repeated Sample
	pprofFieldLocation    = 4 // repeated Location
	pprofFieldStringTable = 6 // repeated string

	valueTypeFieldType = 1 // int64, string-table index

	sampleFieldLocationID = 1 // repeated uint64
	sampleFieldValue      = 2 // repeated int64

	locationFieldID      = 1 // uint64
	locationFieldAddress = 3 // uint64
)

// pprofSample is one decoded Sample record.
type pprofSample struct {
	locs []uint64
	vals []int64
}

// FromPprof converts a pprof protobuf CPU profile (raw or gzipped) into
// an EIPV profile: one row per sample record, the row's EIPs are the
// sample's frame addresses, and the row weight is the sample's
// instructions value when an "instructions" sample type is present
// (value[0] otherwise). When both "cycles" and "instructions" types
// exist, each row's CPI is its cycles/instructions ratio; otherwise every
// row gets defaultCPI.
func FromPprof(r io.Reader, lim Limits, defaultCPI float64) (*Profile, error) {
	lim = lim.withDefaults()
	data, err := readBounded(r, lim.MaxBytes)
	if err != nil {
		return nil, err
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(strings.NewReader(string(data)))
		if err != nil {
			return nil, fmt.Errorf("%w: pprof gzip: %v", ErrCorrupt, err)
		}
		data, err = readBounded(zr, lim.MaxBytes)
		if err != nil {
			return nil, err
		}
	}

	var (
		typeIdx  []int64 // sample_type[i].type (string-table index)
		samples  []pprofSample
		locAddr  = map[uint64]uint64{}
		strTable []string
	)
	d := &pbReader{buf: data}
	for d.len() > 0 {
		field, wire, err := d.tag()
		if err != nil {
			return nil, err
		}
		switch {
		case field == pprofFieldSampleType && wire == 2:
			msg, err := d.bytes()
			if err != nil {
				return nil, err
			}
			ti, err := pbScanVarintField(msg, valueTypeFieldType)
			if err != nil {
				return nil, err
			}
			typeIdx = append(typeIdx, ti)
		case field == pprofFieldSample && wire == 2:
			if len(samples) >= lim.MaxRows {
				return nil, fmt.Errorf("%w: pprof has more than %d samples", ErrTooLarge, lim.MaxRows)
			}
			msg, err := d.bytes()
			if err != nil {
				return nil, err
			}
			s, err := pbDecodeSample(msg, lim)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case field == pprofFieldLocation && wire == 2:
			msg, err := d.bytes()
			if err != nil {
				return nil, err
			}
			id, err := pbScanVarintField(msg, locationFieldID)
			if err != nil {
				return nil, err
			}
			addr, err := pbScanVarintField(msg, locationFieldAddress)
			if err != nil {
				return nil, err
			}
			locAddr[uint64(id)] = uint64(addr)
		case field == pprofFieldStringTable && wire == 2:
			b, err := d.bytes()
			if err != nil {
				return nil, err
			}
			strTable = append(strTable, string(b))
		default:
			if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	// Resolve the value columns by sample-type name.
	instCol, cycCol := -1, -1
	for i, ti := range typeIdx {
		if ti < 0 || int(ti) >= len(strTable) {
			continue
		}
		switch strTable[ti] {
		case "instructions":
			instCol = i
		case "cycles", "cpu":
			cycCol = i
		}
	}

	p := &Profile{Name: "pprof", IntervalInsts: convertIntervalInsts}
	nnz := 0
	for _, s := range samples {
		weight := int64(1)
		switch {
		case instCol >= 0 && instCol < len(s.vals) && s.vals[instCol] > 0:
			weight = s.vals[instCol]
		case len(s.vals) > 0 && s.vals[0] > 0:
			weight = s.vals[0]
		}
		if weight > math.MaxInt32 {
			weight = math.MaxInt32
		}

		cpi := defaultCPI
		if instCol >= 0 && cycCol >= 0 && instCol < len(s.vals) && cycCol < len(s.vals) &&
			s.vals[instCol] > 0 && s.vals[cycCol] > 0 {
			cpi = float64(s.vals[cycCol]) / float64(s.vals[instCol])
		}

		// One histogram entry per distinct frame address (recursive frames
		// collapse, their weights summing).
		hist := map[uint64]int64{}
		for _, id := range s.locs {
			addr, ok := locAddr[id]
			if !ok || addr == 0 {
				addr = id // address-less locations keep their ID as a stable key
			}
			hist[addr] += weight
		}
		row := histRow(hist, cpi)
		if len(row.EIPs) > lim.MaxRowFeatures {
			return nil, fmt.Errorf("%w: pprof sample spans %d frames > %d", ErrTooLarge, len(row.EIPs), lim.MaxRowFeatures)
		}
		nnz += len(row.EIPs)
		if nnz > lim.MaxFeatures {
			return nil, fmt.Errorf("%w: more than %d total features", ErrTooLarge, lim.MaxFeatures)
		}
		p.Rows = append(p.Rows, row)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// histRow flattens a histogram map into a sorted Row, clamping counts to
// the wire range.
func histRow(hist map[uint64]int64, cpi float64) Row {
	r := Row{CPI: cpi, EIPs: make([]uint64, 0, len(hist)), Counts: make([]int64, 0, len(hist))}
	for e := range hist {
		r.EIPs = append(r.EIPs, e)
	}
	sort.Slice(r.EIPs, func(a, b int) bool { return r.EIPs[a] < r.EIPs[b] })
	for _, e := range r.EIPs {
		c := hist[e]
		if c > math.MaxInt32 {
			c = math.MaxInt32
		}
		if c < 1 {
			c = 1
		}
		r.Counts = append(r.Counts, c)
	}
	return r
}

func pbDecodeSample(msg []byte, lim Limits) (pprofSample, error) {
	var s pprofSample
	d := &pbReader{buf: msg}
	for d.len() > 0 {
		field, wire, err := d.tag()
		if err != nil {
			return s, err
		}
		switch {
		case field == sampleFieldLocationID && wire == 0:
			v, err := d.varint()
			if err != nil {
				return s, err
			}
			s.locs = append(s.locs, v)
		case field == sampleFieldLocationID && wire == 2: // packed
			packed, err := d.bytes()
			if err != nil {
				return s, err
			}
			pd := &pbReader{buf: packed}
			for pd.len() > 0 {
				v, err := pd.varint()
				if err != nil {
					return s, err
				}
				if len(s.locs) > lim.MaxRowFeatures {
					return s, fmt.Errorf("%w: sample spans more than %d frames", ErrTooLarge, lim.MaxRowFeatures)
				}
				s.locs = append(s.locs, v)
			}
		case field == sampleFieldValue && wire == 0:
			v, err := d.varint()
			if err != nil {
				return s, err
			}
			s.vals = append(s.vals, int64(v))
		case field == sampleFieldValue && wire == 2: // packed
			packed, err := d.bytes()
			if err != nil {
				return s, err
			}
			pd := &pbReader{buf: packed}
			for pd.len() > 0 {
				v, err := pd.varint()
				if err != nil {
					return s, err
				}
				s.vals = append(s.vals, int64(v))
			}
		default:
			if err := d.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// pbScanVarintField returns the last varint value of the given field in a
// message (0 if absent).
func pbScanVarintField(msg []byte, want int) (int64, error) {
	var out int64
	d := &pbReader{buf: msg}
	for d.len() > 0 {
		field, wire, err := d.tag()
		if err != nil {
			return 0, err
		}
		if field == want && wire == 0 {
			v, err := d.varint()
			if err != nil {
				return 0, err
			}
			out = int64(v)
			continue
		}
		if err := d.skip(wire); err != nil {
			return 0, err
		}
	}
	return out, nil
}

// pbReader is a minimal protobuf wire-format cursor: just enough to walk
// messages, read varints and length-delimited fields, and skip the rest.
type pbReader struct {
	buf []byte
	off int
}

func (d *pbReader) len() int { return len(d.buf) - d.off }

func (d *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if d.off >= len(d.buf) {
			return 0, fmt.Errorf("%w: truncated protobuf varint", ErrCorrupt)
		}
		b := d.buf[d.off]
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: protobuf varint overflow", ErrCorrupt)
}

func (d *pbReader) tag() (field, wire int, err error) {
	v, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

func (d *pbReader) bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.len()) {
		return nil, fmt.Errorf("%w: protobuf field length %d exceeds remaining %d", ErrCorrupt, n, d.len())
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *pbReader) skip(wire int) error {
	switch wire {
	case 0:
		_, err := d.varint()
		return err
	case 1:
		if d.len() < 8 {
			return fmt.Errorf("%w: truncated protobuf fixed64", ErrCorrupt)
		}
		d.off += 8
	case 2:
		_, err := d.bytes()
		return err
	case 5:
		if d.len() < 4 {
			return fmt.Errorf("%w: truncated protobuf fixed32", ErrCorrupt)
		}
		d.off += 4
	default:
		return fmt.Errorf("%w: protobuf wire type %d", ErrCorrupt, wire)
	}
	return nil
}

// ---------------------------------------------------------------------
// perf script (text sample stream)
// ---------------------------------------------------------------------

// perfSample is one parsed `perf script` line.
type perfSample struct {
	event  string
	period uint64
	ip     uint64
}

// FromPerfScript converts a `perf script`-style text stream into an EIPV
// profile. Expected line shape (the default `perf script -F
// comm,pid,time,period,event,ip` ordering):
//
//	prog 1234 12345.678901: 100000 instructions: 401234 main (/bin/prog)
//
// i.e. somewhere on the line, an integer period followed by an
// "event:"-style token followed by a hex instruction pointer. Lines that
// do not match (headers, comments, lost-event markers) are skipped.
//
// When the stream contains instructions events they drive the interval
// cut: a row is emitted every intervalInsts retired instructions (0 means
// 100000), carrying a real CPI whenever cycles events accrued in the same
// window. Without instructions events, all samples drive the cut by their
// summed periods and every row gets defaultCPI.
func FromPerfScript(r io.Reader, lim Limits, intervalInsts uint64, defaultCPI float64) (*Profile, error) {
	lim = lim.withDefaults()
	if intervalInsts == 0 {
		intervalInsts = convertIntervalInsts
	}

	var samples []perfSample
	haveInst := false
	sc := bufio.NewScanner(&io.LimitedReader{R: r, N: lim.MaxBytes + 1})
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		s, ok := parsePerfLine(sc.Text())
		if !ok {
			continue
		}
		if strings.Contains(s.event, "instruction") {
			haveInst = true
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%w: no parseable perf samples", ErrInvalid)
	}

	p := &Profile{Name: "perf-script", IntervalInsts: intervalInsts}
	hist := map[uint64]int64{}
	var instAcc, cycAcc uint64
	nnz := 0
	emit := func() error {
		if len(hist) == 0 {
			return nil
		}
		cpi := defaultCPI
		if haveInst && cycAcc > 0 && instAcc > 0 {
			cpi = float64(cycAcc) / float64(instAcc)
		}
		row := histRow(hist, cpi)
		if len(row.EIPs) > lim.MaxRowFeatures {
			return fmt.Errorf("%w: interval spans %d EIPs > %d", ErrTooLarge, len(row.EIPs), lim.MaxRowFeatures)
		}
		nnz += len(row.EIPs)
		if nnz > lim.MaxFeatures {
			return fmt.Errorf("%w: more than %d total features", ErrTooLarge, lim.MaxFeatures)
		}
		if len(p.Rows) >= lim.MaxRows {
			return fmt.Errorf("%w: more than %d rows", ErrTooLarge, lim.MaxRows)
		}
		p.Rows = append(p.Rows, row)
		hist = map[uint64]int64{}
		instAcc, cycAcc = 0, 0
		return nil
	}
	for _, s := range samples {
		period := s.period
		if period == 0 {
			period = 1
		}
		isInst := strings.Contains(s.event, "instruction")
		if strings.Contains(s.event, "cycle") {
			cycAcc += period
		}
		// The driving stream fills the histogram and advances the cut.
		if isInst || !haveInst {
			hist[s.ip] += int64(period)
			instAcc += period
			if instAcc >= intervalInsts {
				if err := emit(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := emit(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parsePerfLine extracts (period, event, ip) from one perf script line.
func parsePerfLine(line string) (perfSample, bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return perfSample{}, false
	}
	fields := strings.Fields(line)
	for i := 1; i+1 < len(fields); i++ {
		ev := strings.TrimRight(fields[i], ":")
		if ev == fields[i] { // not an "event:" token
			continue
		}
		// Event names contain letters; this skips the timestamp token.
		if !strings.ContainsFunc(ev, func(r rune) bool { return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' }) {
			continue
		}
		period, err := strconv.ParseUint(fields[i-1], 10, 64)
		if err != nil {
			continue
		}
		ip, err := strconv.ParseUint(strings.TrimPrefix(fields[i+1], "0x"), 16, 64)
		if err != nil {
			continue
		}
		// Normalize "cycles:u" / "cpu/instructions/" spellings to the bare
		// event name.
		if j := strings.IndexByte(ev, ':'); j > 0 {
			ev = ev[:j]
		}
		ev = strings.Trim(ev, "/")
		if j := strings.IndexByte(ev, '/'); j >= 0 {
			ev = ev[j+1:]
		}
		return perfSample{event: ev, period: period, ip: ip}, true
	}
	return perfSample{}, false
}
