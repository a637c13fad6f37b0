package profilefmt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
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
// Decoding is one streaming pass with no reflection and no encoding/json
// decoder: a byte-level reader (jsonReader) consumes rows one array
// element at a time off a size-bounded bufio.Reader, so a
// multi-hundred-thousand-row profile never materializes as one giant
// JSON document, and the structural limits are enforced as rows arrive.
// It accepts and produces what encoding/json would: envelope keys match
// exactly, row keys as encoding/json matches struct fields
// (bytes.EqualFold after unescaping). Encoding still goes through
// encoding/json. Go's JSON float formatting is shortest-round-trip, so
// CPI values survive JSON encode/decode bit-exactly — JSON and binary
// forms of one profile analyze identically.

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
// byte-bounded, rows are decoded one element at a time, and the row and
// feature limits apply as each row completes. The result is fully
// validated.
func DecodeJSON(r io.Reader, lim Limits) (*Profile, error) {
	lim = lim.withDefaults()
	lr := &io.LimitedReader{R: r, N: lim.MaxBytes + 1}
	d := &jsonReader{br: bufio.NewReaderSize(lr, 32<<10), lr: lr, lim: lim}
	p, err := d.profile()
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// jsonReader is DecodeJSON's one pass over the input. It reads in place
// from the bufio.Reader's buffer (win, of which pos bytes are consumed)
// and decodes with no reflection, reproducing what the encoding/json
// decoder it replaced accepts, rejects and produces:
//
//   - envelope keys match exactly and row keys by bytes.EqualFold, both
//     after unescaping; an unknown row key's value is skipped but still
//     checked against the grammar, down to encoding/json's nesting limit;
//   - a repeated key keeps its last value, null leaves a number or string
//     as it was, sets a row slice to nil, and as an array element keeps
//     what the slice's backing array held there (see rowSlice);
//   - numbers must pass the JSON grammar and then convert as
//     strconv.ParseUint, ParseInt or ParseFloat convert them;
//   - a syntax, type or read failure is ErrTooLarge once the input ran
//     past the byte limit, else ErrCorrupt (see fail).
type jsonReader struct {
	br  *bufio.Reader
	lr  *io.LimitedReader
	lim Limits
	win []byte // the bytes buffered in br; win[pos:] is unread
	pos int
	err error  // the read error that ended the input (io.EOF at its end)
	tmp []byte // a literal that spans two windows

	eips       rowSlice[uint64]
	counts     rowSlice[int64]
	eipArena   arena[uint64]
	countArena arena[int64]
}

// maxNestingDepth is encoding/json's limit on nested arrays and objects
// inside one decoded value (a row).
const maxNestingDepth = 10000

// The row keys, matched as encoding/json matches struct fields.
var (
	keyCPI    = []byte("cpi")
	keyEIPs   = []byte("eips")
	keyCounts = []byte("counts")
)

// profile decodes the envelope up to and including the check that only
// whitespace follows it.
func (d *jsonReader) profile() (*Profile, error) {
	c, ok := d.peek()
	if !ok {
		return nil, d.fail(d.err)
	}
	if c != '{' {
		return nil, d.syntax(c, "looking for beginning of the profile object")
	}
	d.pos++
	p := &Profile{}
	sawMagic, sawVersion := false, false
	for n := 0; ; n++ {
		c, ok := d.peek()
		if !ok {
			return nil, d.fail(d.err)
		}
		if c == '}' {
			d.pos++
			break
		}
		if n > 0 {
			if c != ',' {
				return nil, d.syntax(c, "after object key:value pair")
			}
			d.pos++
			if c, ok = d.peek(); !ok {
				return nil, d.fail(d.err)
			}
		}
		if c != '"' {
			return nil, d.syntax(c, "looking for beginning of object key string")
		}
		raw, err := d.str()
		if err != nil {
			return nil, err
		}
		key := string(unquote(raw))
		if key == "rows" && (!sawMagic || !sawVersion) {
			// The magic and version must lead the rows: a decoder must
			// know what it is reading before it commits to row decoding.
			return nil, fmt.Errorf("%w: rows before magic/version", ErrCorrupt)
		}
		switch key {
		case "magic", "version", "name", "machine", "interval_insts", "threads", "rows":
		default:
			// Unknown envelope fields are rejected: a typo ("interval-insts")
			// must not silently decode a different profile than intended.
			return nil, fmt.Errorf("%w: unknown field %q", ErrCorrupt, key)
		}
		if err := d.colon(); err != nil {
			return nil, err
		}
		switch key {
		case "magic":
			var magic string
			if err := d.stringValue(&magic); err != nil {
				return nil, err
			}
			if magic != jsonMagic {
				return nil, fmt.Errorf("%w: not a fuzzyphase EIPV profile (magic %q)", ErrCorrupt, magic)
			}
			sawMagic = true
		case "version":
			var v int
			if err := d.intValue(&v); err != nil {
				return nil, err
			}
			if v != Version {
				return nil, fmt.Errorf("%w: profile version %d, this build reads %d", ErrUnsupportedVersion, v, Version)
			}
			sawVersion = true
		case "name":
			err = d.stringValue(&p.Name)
		case "machine":
			err = d.stringValue(&p.Machine)
		case "interval_insts":
			err = d.uintValue(&p.IntervalInsts)
		case "threads":
			err = d.intValue(&p.Threads)
		case "rows":
			err = d.rows(p)
		}
		if err != nil {
			return nil, err
		}
	}
	if !sawMagic {
		return nil, fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	if !sawVersion {
		return nil, fmt.Errorf("%w: missing version", ErrCorrupt)
	}
	// Anything after the closing brace is framing damage.
	if c, ok := d.peek(); ok || d.err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after profile (%q, %v)", ErrCorrupt, c, d.err)
	}
	return p, nil
}

// rows decodes the rows array into p, checking the row count before each
// element and the feature limits after it. The feature total counts this
// array's rows only.
func (d *jsonReader) rows(p *Profile) error {
	c, ok := d.peek()
	if !ok {
		return d.fail(d.err)
	}
	if c != '[' {
		return d.syntax(c, "looking for the rows array")
	}
	d.pos++
	nnz := 0
	for n := 0; ; n++ {
		c, ok := d.peek()
		if !ok {
			return d.fail(d.err)
		}
		if c == ']' {
			d.pos++
			return nil
		}
		if c == '}' {
			// Checked before the row limit, as encoding/json's More
			// reports no further element at '}'.
			return d.syntax(c, "after array element")
		}
		if len(p.Rows) >= d.lim.MaxRows {
			return fmt.Errorf("%w: more than %d rows", ErrTooLarge, d.lim.MaxRows)
		}
		if n > 0 {
			if c != ',' {
				return d.syntax(c, "after array element")
			}
			d.pos++
		}
		cpi, err := d.row()
		if err != nil {
			return err
		}
		if d.eips.n > d.lim.MaxRowFeatures {
			return fmt.Errorf("%w: row %d has %d features > %d",
				ErrTooLarge, len(p.Rows), d.eips.n, d.lim.MaxRowFeatures)
		}
		nnz += max(d.eips.n, 0)
		if nnz > d.lim.MaxFeatures {
			return fmt.Errorf("%w: more than %d total features", ErrTooLarge, d.lim.MaxFeatures)
		}
		p.Rows = append(p.Rows, Row{CPI: cpi,
			EIPs: d.eips.slice(&d.eipArena), Counts: d.counts.slice(&d.countArena)})
	}
}

// row decodes one rows element, an object or null, as encoding/json
// decodes it into a fresh {cpi, eips, counts} struct: the CPI is
// returned, the slices are left in d.eips and d.counts.
func (d *jsonReader) row() (cpi float64, err error) {
	d.eips.reset()
	d.counts.reset()
	c, ok := d.peek()
	if !ok {
		return 0, d.fail(d.err)
	}
	if c == 'n' {
		return 0, d.literal("null")
	}
	if c != '{' {
		return 0, d.syntax(c, "looking for a row object")
	}
	d.pos++
	if c, ok = d.peek(); !ok {
		return 0, d.fail(d.err)
	}
	if c == '}' {
		d.pos++
		return 0, nil
	}
	for {
		if c != '"' {
			return 0, d.syntax(c, "looking for beginning of object key string")
		}
		raw, err := d.str()
		if err != nil {
			return 0, err
		}
		key := unquote(raw)
		var field int
		switch {
		case bytes.EqualFold(key, keyCPI):
			field = 1
		case bytes.EqualFold(key, keyEIPs):
			field = 2
		case bytes.EqualFold(key, keyCounts):
			field = 3
		}
		if err := d.colon(); err != nil {
			return 0, err
		}
		switch field {
		case 1:
			err = d.floatValue(&cpi)
		case 2:
			err = decodeRowSlice(d, &d.eips, parseUint)
		case 3:
			err = decodeRowSlice(d, &d.counts, parseInt)
		default:
			err = d.skip(2)
		}
		if err != nil {
			return 0, err
		}
		if c, ok = d.peek(); !ok {
			return 0, d.fail(d.err)
		}
		d.pos++
		if c == '}' {
			return cpi, nil
		}
		if c != ',' {
			return 0, d.syntax(c, "after object key:value pair")
		}
		if c, ok = d.peek(); !ok {
			return 0, d.fail(d.err)
		}
	}
}

// rowSlice is a row's EIPs or counts as encoding/json decodes a slice
// field, which a repeated key and null elements expose: null sets the
// slice to nil and [] to a new empty slice, while an array decodes into
// the slice's existing backing array, so a null element keeps what an
// earlier array of the same row left at its position (zero where none
// reached). back holds every position the row's arrays reached since the
// last null or []; the slice is back[:n], nil when n is -1.
type rowSlice[T uint64 | int64] struct {
	back []T
	n    int
}

func (s *rowSlice[T]) reset() { s.back, s.n = s.back[:0], -1 }

// slice returns the decoded slice, copied out of the reused back array.
func (s *rowSlice[T]) slice(a *arena[T]) []T {
	switch s.n {
	case -1:
		return nil
	case 0:
		return []T{}
	}
	return a.copy(s.back[:s.n])
}

// decodeRowSlice decodes a slice field's value into s, converting each
// number with conv.
func decodeRowSlice[T uint64 | int64](d *jsonReader, s *rowSlice[T], conv func([]byte) (T, bool)) error {
	c, ok := d.peek()
	if !ok {
		return d.fail(d.err)
	}
	if c == 'n' {
		s.reset()
		return d.literal("null")
	}
	if c != '[' {
		return d.syntax(c, "looking for an array of integers")
	}
	d.pos++
	if c, ok = d.peek(); !ok {
		return d.fail(d.err)
	}
	if c == ']' {
		d.pos++
		s.back, s.n = s.back[:0], 0
		return nil
	}
	for i := 0; ; i++ {
		if i == len(s.back) {
			s.back = append(s.back, 0)
		}
		switch {
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			lit, err := d.number()
			if err != nil {
				return err
			}
			v, ok := conv(lit)
			if !ok {
				return d.fail(fmt.Errorf("cannot store number %s in a %T", lit, v))
			}
			s.back[i] = v
		default:
			return d.syntax(c, "looking for an integer")
		}
		if c, ok = d.peek(); !ok {
			return d.fail(d.err)
		}
		d.pos++
		if c == ']' {
			s.n = i + 1
			return nil
		}
		if c != ',' {
			return d.syntax(c, "after array element")
		}
		if c, ok = d.peek(); !ok {
			return d.fail(d.err)
		}
	}
}

// arena hands out row slices carved from shared chunks, so a profile's
// rows cost a few large allocations rather than two per row. Each slice
// is capped at its length.
type arena[T any] struct{ free []T }

func (a *arena[T]) copy(src []T) []T {
	if len(src) > len(a.free) {
		a.free = make([]T, max(len(src), 16<<10))
	}
	out := a.free[:len(src):len(src)]
	copy(out, src)
	a.free = a.free[len(src):]
	return out
}

// parseUint converts a number literal as strconv.ParseUint(lit, 10, 64)
// does, reporting false where it fails. Up to 19 plain digits cannot
// overflow and are converted in place.
func parseUint(lit []byte) (uint64, bool) {
	if len(lit) > 19 {
		v, err := strconv.ParseUint(string(lit), 10, 64)
		return v, err == nil
	}
	var v uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false // a sign, fraction or exponent
		}
		v = 10*v + uint64(c-'0')
	}
	return v, true
}

// parseInt converts a number literal as strconv.ParseInt(lit, 10, 64)
// does, reporting false where it fails. A sign and up to 18 digits
// cannot overflow and are converted in place.
func parseInt(lit []byte) (int64, bool) {
	digits := lit
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) > 18 {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		return v, err == nil
	}
	v, ok := parseUint(digits)
	if len(digits) < len(lit) {
		return -int64(v), ok
	}
	return int64(v), ok
}

// stringValue decodes a string or null into *dst; null leaves it as it was.
func (d *jsonReader) stringValue(dst *string) error {
	c, ok := d.peek()
	switch {
	case !ok:
		return d.fail(d.err)
	case c == 'n':
		return d.literal("null")
	case c != '"':
		return d.syntax(c, "looking for a string")
	}
	raw, err := d.str()
	if err != nil {
		return err
	}
	*dst = string(unquote(raw))
	return nil
}

// intValue decodes an integer or null into *dst, as strconv.ParseInt
// converts it for an int; null leaves it as it was.
func (d *jsonReader) intValue(dst *int) error {
	lit, err := d.numberOrNull()
	if lit == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return d.fail(err)
	}
	*dst = int(v)
	return nil
}

// uintValue decodes an unsigned integer or null into *dst; null leaves
// it as it was.
func (d *jsonReader) uintValue(dst *uint64) error {
	lit, err := d.numberOrNull()
	if lit == nil || err != nil {
		return err
	}
	v, ok := parseUint(lit)
	if !ok {
		return d.fail(fmt.Errorf("cannot store number %s in a uint64", lit))
	}
	*dst = v
	return nil
}

// floatValue decodes a number or null into *dst, as strconv.ParseFloat
// converts it; null leaves it as it was.
func (d *jsonReader) floatValue(dst *float64) error {
	lit, err := d.numberOrNull()
	if lit == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.fail(err)
	}
	*dst = v
	return nil
}

// numberOrNull decodes a number literal, or null, for which it returns a
// nil literal and no error.
func (d *jsonReader) numberOrNull() ([]byte, error) {
	c, ok := d.peek()
	switch {
	case !ok:
		return nil, d.fail(d.err)
	case c == 'n':
		return nil, d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return nil, d.syntax(c, "looking for a number")
	}
	return d.number()
}

// skip consumes a value of any kind and checks it against the grammar;
// depth is the nesting level an array or object value would open.
func (d *jsonReader) skip(depth int) error {
	c, ok := d.peek()
	if !ok {
		return d.fail(d.err)
	}
	switch c {
	case '{', '[':
		if depth > maxNestingDepth {
			return d.fail(errors.New("exceeded max depth"))
		}
		d.pos++
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		next, ok := d.peek()
		if !ok {
			return d.fail(d.err)
		}
		if next == end {
			d.pos++
			return nil
		}
		for {
			if c == '{' {
				if next != '"' {
					return d.syntax(next, "looking for beginning of object key string")
				}
				if _, err := d.str(); err != nil {
					return err
				}
				if err := d.colon(); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			if next, ok = d.peek(); !ok {
				return d.fail(d.err)
			}
			d.pos++
			if next == end {
				return nil
			}
			if next != ',' {
				return d.syntax(next, "after a value in an array or object")
			}
			if next, ok = d.peek(); !ok {
				return d.fail(d.err)
			}
		}
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	if c == '-' || '0' <= c && c <= '9' {
		_, err := d.number()
		return err
	}
	return d.syntax(c, "looking for beginning of value")
}

// colon consumes the ':' after an object key.
func (d *jsonReader) colon() error {
	c, ok := d.peek()
	if !ok {
		return d.fail(d.err)
	}
	if c != ':' {
		return d.syntax(c, "after object key")
	}
	d.pos++
	return nil
}

// literal consumes the literal word (true, false or null), whose first
// byte is next.
func (d *jsonReader) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos == len(d.win) && !d.fill() {
			return d.fail(d.err)
		}
		if c := d.win[d.pos]; c != word[i] {
			return d.syntax(c, "in literal "+word)
		}
		d.pos++
	}
	return nil
}

// The states of a number literal, as the JSON grammar defines it:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
const (
	numStart   = iota // nothing read
	numSign           // after '-'
	numZero           // after a leading 0: complete
	numInt            // in the integer digits: complete
	numDot            // after '.'
	numFrac           // in the fraction digits: complete
	numE              // after 'e' or 'E'
	numExpSign        // after the exponent's sign
	numExp            // in the exponent digits: complete
)

// numNext returns the state after byte c, or -1 where c ends the literal.
func numNext(st int, c byte) int {
	digit := '0' <= c && c <= '9'
	switch st {
	case numStart, numSign:
		switch {
		case c == '-' && st == numStart:
			return numSign
		case c == '0':
			return numZero
		case digit:
			return numInt
		}
	case numZero, numInt:
		switch {
		case digit && st == numInt:
			return numInt
		case c == '.':
			return numDot
		case c == 'e' || c == 'E':
			return numE
		}
	case numDot, numFrac:
		switch {
		case digit:
			return numFrac
		case st == numFrac && (c == 'e' || c == 'E'):
			return numE
		}
	case numE, numExpSign:
		switch {
		case digit:
			return numExp
		case st == numE && (c == '+' || c == '-'):
			return numExpSign
		}
	case numExp:
		if digit {
			return numExp
		}
	}
	return -1
}

// number consumes a number literal, whose first byte is next, checks it
// against the grammar and returns its bytes, valid until the next read.
func (d *jsonReader) number() ([]byte, error) {
	start, st := d.pos, numStart
	d.tmp = d.tmp[:0]
	for {
		for ; d.pos < len(d.win); d.pos++ {
			next := numNext(st, d.win[d.pos])
			if next < 0 {
				if st != numZero && st != numInt && st != numFrac && st != numExp {
					return nil, d.syntax(d.win[d.pos], "in numeric literal")
				}
				if len(d.tmp) > 0 {
					return append(d.tmp, d.win[start:d.pos]...), nil
				}
				return d.win[start:d.pos], nil
			}
			st = next
		}
		d.tmp = append(d.tmp, d.win[start:]...)
		if !d.fill() {
			if st != numZero && st != numInt && st != numFrac && st != numExp {
				return nil, d.fail(d.err)
			}
			return d.tmp, nil
		}
		start = 0
	}
}

// str consumes a string literal, whose opening quote is next, checks it
// against the grammar and returns its raw contents between the quotes,
// escapes still in place (see unquote), valid until the next read.
func (d *jsonReader) str() ([]byte, error) {
	d.pos++
	start := d.pos
	d.tmp = d.tmp[:0]
	esc, hex := false, 0 // after a backslash; \u hex digits still due
	for {
		for ; d.pos < len(d.win); d.pos++ {
			c := d.win[d.pos]
			switch {
			case hex > 0:
				if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
					return nil, d.syntax(c, `in \u hexadecimal character escape`)
				}
				hex--
			case esc:
				esc = false
				switch c {
				case 'u':
					hex = 4
				case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				default:
					return nil, d.syntax(c, "in string escape code")
				}
			case c == '"':
				raw := d.win[start:d.pos]
				d.pos++
				if len(d.tmp) > 0 {
					return append(d.tmp, raw...), nil
				}
				return raw, nil
			case c == '\\':
				esc = true
			case c < ' ':
				return nil, d.syntax(c, "in string literal")
			}
		}
		d.tmp = append(d.tmp, d.win[start:]...)
		if !d.fill() {
			return nil, d.fail(d.err)
		}
		start = 0
	}
}

// unquote returns a string literal's contents with its escapes decoded,
// as encoding/json decodes them: a \u escape of a lone or misordered
// UTF-16 surrogate and each byte of invalid UTF-8 become U+FFFD. raw has
// passed str's grammar check.
func unquote(raw []byte) []byte {
	if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return raw
	}
	b := make([]byte, 0, len(raw)+2*utf8.UTFMax)
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\' && raw[r+1] == 'u':
			rr := getu4(raw[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, getu4(raw[r:])); dec != unicode.ReplacementChar {
					rr = dec
					r += 6
				} else {
					rr = unicode.ReplacementChar
				}
			}
			b = utf8.AppendRune(b, rr)
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			default: // '"', '\\' or '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(string(s[2:6]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(v)
}

// peek skips whitespace and returns the next byte without consuming it;
// ok is false at the end of the input, whose cause is then in d.err.
func (d *jsonReader) peek() (c byte, ok bool) {
	for {
		for ; d.pos < len(d.win); d.pos++ {
			switch c = d.win[d.pos]; c {
			case ' ', '\t', '\r', '\n':
			default:
				return c, true
			}
		}
		if !d.fill() {
			return 0, false
		}
	}
}

// fill moves to the next window once the current one is consumed. It
// reports false at the end of the input, leaving the read error in d.err.
func (d *jsonReader) fill() bool {
	d.br.Discard(len(d.win))
	d.win, d.pos = nil, 0
	if _, err := d.br.Peek(1); err != nil {
		d.err = err
		return false
	}
	d.win, _ = d.br.Peek(d.br.Buffered())
	return true
}

// fail classifies a syntax, type or read failure as the decoder always
// has: ErrTooLarge once the input ran past the byte limit, a truncation
// where the input ended early, and ErrCorrupt otherwise.
func (d *jsonReader) fail(err error) error {
	if d.lr.N <= 0 {
		return fmt.Errorf("%w: more than %d encoded bytes", ErrTooLarge, d.lim.MaxBytes)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated JSON", ErrCorrupt)
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// syntax is fail for an unexpected byte.
func (d *jsonReader) syntax(c byte, context string) error {
	return d.fail(fmt.Errorf("invalid character %q %s", c, context))
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
