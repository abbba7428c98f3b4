package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// maxPooledBody bounds the bodies whose buffers bodyPool keeps: one plan of
// MaxTenantDevices floats (each at most 25 bytes and a comma) and the other
// fields. A batch's longer body is left to the collector, so the pool never
// pins its buffer.
const maxPooledBody = MaxTenantDevices*26 + 256

// bodyPool recycles the buffers writeDecide encodes into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// putBody returns a response buffer to bodyPool unless the body it holds is
// longer than maxPooledBody, and reports whether it did.
func putBody(bp *[]byte) bool {
	if len(*bp) > maxPooledBody {
		return false
	}
	bodyPool.Put(bp)
	return true
}

// writeDecide renders a 200 decide response: appendDecideResponse into a
// pooled buffer, then one Write with its Content-Length. A response holding
// a non-finite float, which encoding/json refuses, goes through writeJSON,
// so it gets encoding/json's answer too.
func writeDecide(w http.ResponseWriter, r *DecideResponse) {
	bp := bodyPool.Get().(*[]byte)
	body, ok := appendDecideResponse((*bp)[:0], r)
	if ok {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	} else {
		writeJSON(w, http.StatusOK, r)
	}
	*bp = body
	putBody(bp)
}

// appendDecideResponse appends the bytes json.NewEncoder(w).Encode(r)
// writes, trailing newline included: the fields in declaration order,
// plans omitted when empty, floats as encoding/json formats them and
// strings with its HTML-safe escaping. ok is false when r holds a NaN or an
// infinity, which encoding/json refuses to encode.
func appendDecideResponse(b []byte, r *DecideResponse) (_ []byte, ok bool) {
	b = append(b, `{"freqs":`...)
	b, ok = appendFloats(b, r.Freqs)
	if len(r.Plans) > 0 {
		b = append(b, `,"plans":[`...)
		for i, p := range r.Plans {
			if i > 0 {
				b = append(b, ',')
			}
			var finite bool
			b, finite = appendFloats(b, p)
			ok = ok && finite
		}
		b = append(b, ']')
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = append(b, `,"layer":`...)
	b = appendString(b, r.Layer)
	b = append(b, `,"mode":`...)
	b = appendString(b, r.Mode)
	b = append(b, `,"iter":`...)
	b = strconv.AppendInt(b, int64(r.Iter), 10)
	b = append(b, `,"clock":`...)
	b = appendFloat(b, r.Clock)
	return append(b, '}', '\n'), ok && isFinite(r.Clock)
}

// appendFloats appends a JSON array of fs (null for a nil slice) and
// reports whether every element is finite.
func appendFloats(b []byte, fs []float64) (_ []byte, finite bool) {
	if fs == nil {
		return append(b, "null"...), true
	}
	finite = true
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
		finite = finite && isFinite(f)
	}
	return append(b, ']'), finite
}

// isFinite reports whether f is neither NaN nor an infinity.
func isFinite(f float64) bool { return f-f == 0 }

// appendFloat formats a finite f as encoding/json does, like ES6's number
// to string conversion: shortest digits, fixed-point for magnitudes in
// [1e-6, 1e21) and zero, else exponent notation without a padded exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's HTML-safe
// escaping: quote and backslash escaped, \b \f \n \r \t short, other
// control characters and < > & as \u00XX, invalid UTF-8 as \ufffd, and
// U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
