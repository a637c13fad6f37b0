package profilefmt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// This file keeps the encoding/json decoder that DecodeJSON's streaming
// reader replaced, unchanged but for its names, as the oracle of
// FuzzDecodeJSON and TestDecodeJSONMatchesReference: the two must agree
// on accept or reject, on the error class and on the decoded profile.

// refDecodeJSON decodes a JSON profile from r, enforcing lim: the reader is
// byte-bounded, rows are decoded one element at a time, and structural
// limits apply before each row allocation. The result is fully validated.
func refDecodeJSON(r io.Reader, lim Limits) (*Profile, error) {
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

	if err := refExpectDelim(dec, '{'); err != nil {
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
			if err := refExpectDelim(dec, '['); err != nil {
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
			if err := refExpectDelim(dec, ']'); err != nil {
				return fail(err)
			}
		default:
			// Unknown envelope fields are rejected: a typo ("interval-insts")
			// must not silently decode a different profile than intended.
			return nil, fmt.Errorf("%w: unknown field %q", ErrCorrupt, key)
		}
	}
	if err := refExpectDelim(dec, '}'); err != nil {
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

func refExpectDelim(dec *json.Decoder, want json.Delim) error {
	t, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := t.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, got %v", want, t)
	}
	return nil
}
