package profilefmt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The JSON encoding is the hand-authoring form: an envelope object whose
// leading fields carry the magic and version, with the rows as an array
// of {"cpi", "eips", "counts"} objects:
//
//	{"magic":"fuzzyphase-eipv","version":1,
//	 "name":"myservice","machine":"prod-x86","interval_insts":100000,
//	 "threads":1,
//	 "rows":[{"cpi":1.25,"eips":[4096,4160],"counts":[52,48]}, ...]}
//
// Decoding is streaming: rows are consumed one array element at a time
// off a size-bounded reader, so a multi-hundred-thousand-row profile
// never materializes as one giant JSON document, and the structural
// limits are enforced as rows arrive. Go's JSON float formatting is
// shortest-round-trip, so CPI values survive JSON encode/decode
// bit-exactly — JSON and binary forms of one profile analyze identically.

// jsonMagic identifies the JSON envelope before any layout is assumed.
const jsonMagic = "fuzzyphase-eipv"

// jsonRow is Row's wire shape.
type jsonRow struct {
	CPI    float64  `json:"cpi"`
	EIPs   []uint64 `json:"eips"`
	Counts []int64  `json:"counts"`
}

// EncodeJSON writes p as the JSON envelope. Rows are streamed one per
// line, so encoding is O(row) in memory.
func EncodeJSON(w io.Writer, p *Profile) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"magic\":%q,\"version\":%d,\"name\":%s,\"machine\":%s,\"interval_insts\":%d,\"threads\":%d,\"rows\":[",
		jsonMagic, Version, mustJSON(p.Name), mustJSON(p.Machine), p.IntervalInsts, p.Threads)
	for i := range p.Rows {
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString("\n")
		r := &p.Rows[i]
		b, err := json.Marshal(jsonRow{CPI: r.CPI, EIPs: r.EIPs, Counts: r.Counts})
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings always marshal
	}
	return string(b)
}

// DecodeJSON decodes a JSON profile from r, enforcing lim: the reader is
// byte-bounded, rows are decoded one element at a time, and structural
// limits apply before each row allocation. The result is fully validated.
func DecodeJSON(r io.Reader, lim Limits) (*Profile, error) {
	lim = lim.withDefaults()
	lr := &io.LimitedReader{R: r, N: lim.MaxBytes + 1}
	dec := json.NewDecoder(lr)

	fail := func(err error) (*Profile, error) {
		if lr.N <= 0 {
			return nil, fmt.Errorf("%w: more than %d encoded bytes", ErrTooLarge, lim.MaxBytes)
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated JSON", ErrCorrupt)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	if err := expectDelim(dec, '{'); err != nil {
		return fail(err)
	}
	p := &Profile{}
	sawMagic, sawVersion := false, false
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return fail(err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "magic":
			var magic string
			if err := dec.Decode(&magic); err != nil {
				return fail(err)
			}
			if magic != jsonMagic {
				return nil, fmt.Errorf("%w: not a fuzzyphase EIPV profile (magic %q)", ErrCorrupt, magic)
			}
			sawMagic = true
		case "version":
			var v int
			if err := dec.Decode(&v); err != nil {
				return fail(err)
			}
			if v != Version {
				return nil, fmt.Errorf("%w: profile version %d, this build reads %d", ErrUnsupportedVersion, v, Version)
			}
			sawVersion = true
		case "name":
			if err := dec.Decode(&p.Name); err != nil {
				return fail(err)
			}
		case "machine":
			if err := dec.Decode(&p.Machine); err != nil {
				return fail(err)
			}
		case "interval_insts":
			if err := dec.Decode(&p.IntervalInsts); err != nil {
				return fail(err)
			}
		case "threads":
			if err := dec.Decode(&p.Threads); err != nil {
				return fail(err)
			}
		case "rows":
			// The magic and version must lead the rows: a decoder must
			// know what it is reading before it commits to row decoding.
			if !sawMagic || !sawVersion {
				return nil, fmt.Errorf("%w: rows before magic/version", ErrCorrupt)
			}
			if err := expectDelim(dec, '['); err != nil {
				return fail(err)
			}
			nnz := 0
			for dec.More() {
				if len(p.Rows) >= lim.MaxRows {
					return nil, fmt.Errorf("%w: more than %d rows", ErrTooLarge, lim.MaxRows)
				}
				var jr jsonRow
				if err := dec.Decode(&jr); err != nil {
					return fail(err)
				}
				if len(jr.EIPs) > lim.MaxRowFeatures {
					return nil, fmt.Errorf("%w: row %d has %d features > %d",
						ErrTooLarge, len(p.Rows), len(jr.EIPs), lim.MaxRowFeatures)
				}
				nnz += len(jr.EIPs)
				if nnz > lim.MaxFeatures {
					return nil, fmt.Errorf("%w: more than %d total features", ErrTooLarge, lim.MaxFeatures)
				}
				p.Rows = append(p.Rows, Row{CPI: jr.CPI, EIPs: jr.EIPs, Counts: jr.Counts})
			}
			if err := expectDelim(dec, ']'); err != nil {
				return fail(err)
			}
		default:
			// Unknown envelope fields are rejected: a typo ("interval-insts")
			// must not silently decode a different profile than intended.
			return nil, fmt.Errorf("%w: unknown field %q", ErrCorrupt, key)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return fail(err)
	}
	if !sawMagic {
		return nil, fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	if !sawVersion {
		return nil, fmt.Errorf("%w: missing version", ErrCorrupt)
	}
	// Anything after the closing brace is framing damage.
	if t, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after profile (%v)", ErrCorrupt, t)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	t, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := t.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, got %v", want, t)
	}
	return nil
}

// Kind identifies a wire encoding.
type Kind int

// The encodings.
const (
	KindUnknown Kind = iota
	KindJSON
	KindBinary
)

func (k Kind) String() string {
	switch k {
	case KindJSON:
		return "json"
	case KindBinary:
		return "binary"
	default:
		return "unknown"
	}
}

// Sniff identifies the encoding from the first bytes of an input: the
// binary magic, or a leading '{' (allowing insignificant whitespace) for
// JSON.
func Sniff(prefix []byte) Kind {
	if len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic {
		return KindBinary
	}
	for _, b := range prefix {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return KindJSON
		default:
			return KindUnknown
		}
	}
	return KindUnknown
}

// Decode auto-detects the encoding (Sniff) and decodes accordingly.
func Decode(r io.Reader, lim Limits) (*Profile, Kind, error) {
	br := bufio.NewReader(r)
	// Peek generously: JSON may lead with insignificant whitespace. Peek
	// returns what it can alongside ErrBufferFull/EOF; only truly empty
	// input is an error here.
	prefix, err := br.Peek(64)
	if err != nil && len(prefix) == 0 {
		return nil, KindUnknown, fmt.Errorf("%w: empty input", ErrCorrupt)
	}
	switch Sniff(prefix) {
	case KindBinary:
		p, err := DecodeBinary(br, lim)
		return p, KindBinary, err
	case KindJSON:
		p, err := DecodeJSON(br, lim)
		return p, KindJSON, err
	default:
		return nil, KindUnknown, fmt.Errorf("%w: unrecognized encoding (want %q binary or JSON envelope)", ErrCorrupt, binaryMagic)
	}
}
