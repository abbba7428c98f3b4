package server

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeDecideRequest parses a decide request strictly: unknown fields,
// trailing garbage, oversized bodies and out-of-range values are all
// errors.
//
// It is a single-pass scanner over the body that accepts and rejects
// exactly what encoding/json (with DisallowUnknownFields and a trailing-data
// check) followed by Validate does, and decodes the same values:
//   - keys match field names case-insensitively under Unicode simple
//     folding (so "clocK" with a Kelvin sign is "clock"), after escapes are
//     decoded; a repeated key overwrites the earlier value;
//   - null is a no-op for tenant, deadline_ms and count and sets clock,
//     observed_cost, last_bw and down to nil;
//   - numbers follow the JSON grammar and convert to strconv's values, so
//     1e400 and a non-integral count are errors and -0 stays -0; a float
//     converts in the scanning pass (atof.go), with strconv.ParseFloat only
//     where the two fast paths decline.
//
// One divergence is deliberate: a null element of last_bw or down is an
// error. encoding/json would decode it as 0 (or false), or, under a repeated
// key, keep what the earlier array left at its index, so a missing
// observation would pass as a real one.
//
// FuzzDecodeRequest holds it to the encoding/json path, with that rule
// added, on arbitrary input.
func DecodeDecideRequest(data []byte) (*DecideRequest, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("server: request body %d bytes exceeds the %d-byte bound", len(data), MaxRequestBytes)
	}
	d := decideDecoder{data: data}
	var r DecideRequest
	if err := d.request(&r); err != nil {
		return nil, fmt.Errorf("server: decode request: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// decideFields are DecideRequest's JSON names.
var decideFields = [...]string{"tenant", "clock", "last_bw", "down", "deadline_ms", "observed_cost", "count"}

// fieldOf resolves an (unescaped) object key to its field name the way
// encoding/json does, equal under Unicode case folding, or returns "". No
// two names fold alike, so this is also encoding/json's exact-match-first
// rule.
func fieldOf(key []byte) string {
	for _, name := range decideFields {
		if strings.EqualFold(string(key), name) {
			return name
		}
	}
	return ""
}

// decideDecoder is the scanner state of one DecodeDecideRequest call.
type decideDecoder struct {
	data []byte
	off  int
	// buf receives strings with escapes.
	buf []byte
}

// errorf reports a syntax or type error at the current offset.
func (d *decideDecoder) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// skipSpace advances past JSON whitespace.
func (d *decideDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at the offset, or 0 at the end of the input.
func (d *decideDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// request decodes the top-level object into r and checks that only
// whitespace follows it.
func (d *decideDecoder) request(r *DecideRequest) error {
	d.skipSpace()
	if d.peek() != '{' {
		return d.errorf("want a JSON object")
	}
	d.off++
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
	} else {
		for {
			if d.peek() != '"' {
				return d.errorf("want an object key")
			}
			key, err := d.str()
			if err != nil {
				return err
			}
			f := fieldOf(key)
			if f == "" {
				return d.errorf("unknown field %q", key)
			}
			d.skipSpace()
			if d.peek() != ':' {
				return d.errorf("want ':' after object key")
			}
			d.off++
			d.skipSpace()
			if err := d.field(r, f); err != nil {
				return err
			}
			d.skipSpace()
			if c := d.peek(); c == ',' {
				d.off++
				d.skipSpace()
				continue
			} else if c == '}' {
				d.off++
				break
			}
			return d.errorf("want ',' or '}' after object value")
		}
	}
	d.skipSpace()
	if d.off != len(d.data) {
		return d.errorf("trailing data after request body")
	}
	return nil
}

// field decodes one value into field f of r. A null leaves tenant,
// deadline_ms and count as they are and sets the other fields to nil.
func (d *decideDecoder) field(r *DecideRequest, f string) (err error) {
	null := d.null()
	switch f {
	case "tenant":
		if !null {
			r.Tenant, err = d.tenant()
		}
	case "clock":
		r.Clock, err = d.optFloat(null)
	case "observed_cost":
		r.ObservedCost, err = d.optFloat(null)
	case "deadline_ms":
		if !null {
			r.DeadlineMS, err = d.float()
		}
	case "count":
		if !null {
			r.Count, err = d.int()
		}
	case "last_bw":
		r.LastBW, err = list(d, null, d.float)
	case "down":
		r.Down, err = list(d, null, d.bool)
	}
	return err
}

// tenant decodes a string value.
func (d *decideDecoder) tenant() (string, error) {
	if d.peek() != '"' {
		return "", d.errorf("tenant must be a string")
	}
	s, err := d.str()
	return string(s), err
}

// optFloat decodes a number, or nil for a null.
func (d *decideDecoder) optFloat(null bool) (*float64, error) {
	if null {
		return nil, nil
	}
	v, err := d.float()
	return &v, err
}

// int decodes a JSON number that strconv reads as an int.
func (d *decideDecoder) int() (int, error) {
	text, _, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(text), 10, 0)
	if err != nil {
		return 0, d.errorf("count %s is not an int", text)
	}
	return int(n), nil
}

// bool decodes true or false.
func (d *decideDecoder) bool() (bool, error) {
	switch rest := d.data[d.off:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.off += 4
		return true, nil
	case bytes.HasPrefix(rest, []byte("false")):
		d.off += 5
		return false, nil
	}
	return false, d.errorf("want true, false or null")
}

// null consumes a null literal if one is next.
func (d *decideDecoder) null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		d.off += 4
		return true
	}
	return false
}

// float decodes a JSON number into a float64 with strconv.ParseFloat's
// bits, converting the scanned digits directly (atof.go) and parsing the
// number's bytes only where that declines.
func (d *decideDecoder) float() (float64, error) {
	text, dec, err := d.number()
	if err != nil {
		return 0, err
	}
	if f, ok := dec.float64(); ok {
		return f, nil
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, d.errorf("number %s out of float64 range", text)
	}
	return f, nil
}

// number scans a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its bytes and what strconv's readFloat reads from them.
func (d *decideDecoder) number() (text []byte, dec decimal, err error) {
	data, i := d.data, d.off
	if i < len(data) && data[i] == '-' {
		dec.neg = true
		i++
	}
	// ndMant counts the mantissa's digits; dp is the decimal point's place
	// among the significant digits, which start at the first nonzero one.
	ndMant, dp := 0, 0
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		j := i
		i, ndMant = dec.digits(data, i, ndMant)
		dp = i - j
	default:
		return nil, dec, d.errorf("want a number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		j := i
		if dp == 0 {
			// Zeros ahead of the first significant digit move the point.
			for i < len(data) && data[i] == '0' {
				i++
			}
			dp = j - i
		}
		if i, ndMant = dec.digits(data, i, ndMant); i == j {
			d.off = i
			return nil, dec, d.errorf("want a digit after the decimal point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		esign := 1
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			if data[i] == '-' {
				esign = -1
			}
			i++
		}
		j := i
		e := 0
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			// Past 10000 the exponent only has to stay out of range.
			if e < 10000 {
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == j {
			d.off = i
			return nil, dec, d.errorf("want a digit in the exponent")
		}
		dp += e * esign
	}
	if dec.mant != 0 {
		dec.exp = dp - ndMant
	}
	text, d.off = data[d.off:i], i
	return text, dec, nil
}

// digits reads the decimal digits from data[i] on into dec: the mantissa
// takes them while it holds fewer than maxMantDigits (ndMant, returned
// updated), and a nonzero digit after that marks it truncated. It returns
// the offset past the last digit.
func (dec *decimal) digits(data []byte, i, ndMant int) (int, int) {
	mant := dec.mant
	for ; i < len(data) && ndMant < maxMantDigits; i++ {
		c := data[i] - '0'
		if c > 9 {
			dec.mant = mant
			return i, ndMant
		}
		mant = mant*10 + uint64(c)
		ndMant++
	}
	dec.mant = mant
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		dec.trunc = dec.trunc || c != 0
	}
	return i, ndMant
}

// list decodes a JSON array (or a null, already consumed) of elements read
// by elem. A null element is an error (see DecodeDecideRequest).
func list[T any](d *decideDecoder, null bool, elem func() (T, error)) ([]T, error) {
	if null {
		return nil, nil
	}
	if d.peek() != '[' {
		return nil, d.errorf("want an array")
	}
	// Size the array from its commas, a hint only, capped at the longest
	// list Validate accepts.
	var out []T
	rest := d.data[d.off:]
	if end := bytes.IndexByte(rest, ']'); end > 0 {
		out = make([]T, 0, min(bytes.Count(rest[:end], []byte{','})+1, MaxTenantDevices))
	}
	d.off++
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		return []T{}, nil
	}
	for {
		if d.null() {
			return nil, d.errorf("null array element")
		}
		v, err := elem()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case ']':
			d.off++
			return out, nil
		default:
			return nil, d.errorf("want ',' or ']' after array element")
		}
	}
}

// str scans the JSON string at '"' and returns its contents with escapes
// decoded as encoding/json decodes them. Bytes at or above 0x80 are copied
// as they are: encoding/json would replace invalid UTF-8 with U+FFFD, but no
// such byte survives in an accepted request (tenant names are ASCII, and a
// key matches a field name only through runes that fold to ASCII letters).
// The result aliases the input or the decoder's buffer and is valid until
// the next call.
func (d *decideDecoder) str() ([]byte, error) {
	start := d.off + 1
	i := start
	for ; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			d.off = i + 1
			return d.data[start:i], nil
		}
		if c == '\\' {
			break
		}
		if c < 0x20 {
			d.off = i
			return nil, d.errorf("control character in string")
		}
	}
	buf := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off, d.buf = i+1, buf
			return buf, nil
		case c < 0x20:
			d.off = i
			return nil, d.errorf("control character in string")
		case c != '\\':
			buf = append(buf, c)
			i++
			continue
		}
		if i+1 >= len(d.data) {
			break
		}
		switch e := d.data[i+1]; e {
		case '"', '\\', '/':
			buf = append(buf, e)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r := hex4(d.data[i+2:])
			if r < 0 {
				d.off = i
				return nil, d.errorf("invalid \\u escape")
			}
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if bytes.HasPrefix(d.data[i:], []byte(`\u`)) {
					r2 = hex4(d.data[i+2:])
				}
				if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
					r = dec
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			buf = utf8.AppendRune(buf, r)
			continue
		default:
			d.off = i
			return nil, d.errorf("invalid escape \\%c", e)
		}
		i += 2
	}
	d.off = len(d.data)
	return nil, d.errorf("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
