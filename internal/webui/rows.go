package webui

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"dnsobservatory/internal/tsv"
)

// rowWriter appends a ranked response — /api/query, /api/top/{agg} and
// /api/detect — into a buffer reused from request to request, so a
// response costs no allocation per row. Its output is byte for byte what
// encoding/json's Encoder wrote for the structs these endpoints used to
// build, rows of {"rank","key","values"} with values a map keyed by
// column name, except that a value JSON cannot hold (NaN, ±Inf) is
// written as null where encoding/json failed the whole response.
type rowWriter struct {
	b     []byte
	order []int // the columns in values-object order
}

var rowWriters = sync.Pool{New: func() any { return new(rowWriter) }}

// newRowWriter returns a pooled writer with the response object open.
func newRowWriter() *rowWriter {
	rw := rowWriters.Get().(*rowWriter)
	rw.b = append(rw.b[:0], '{')
	return rw
}

// send closes the object, writes the response with encoding/json's
// trailing newline and returns rw to the pool; one that grew past 1 MB
// is left to the collector.
func (rw *rowWriter) send(w http.ResponseWriter) {
	rw.b = append(rw.b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	// An error is a client gone mid-response: too late for a status
	// change.
	_, _ = w.Write(rw.b)
	if cap(rw.b) <= 1<<20 {
		rowWriters.Put(rw)
	}
}

// field appends a member name: ',' unless it opens the object, then
// the quoted name and ':'. Names are plain ASCII.
func (rw *rowWriter) field(name string) {
	if n := len(rw.b); n > 0 && rw.b[n-1] != '{' {
		rw.b = append(rw.b, ',')
	}
	rw.b = append(append(append(append(rw.b, '"'), name...), '"'), ':')
}

func (rw *rowWriter) int(name string, v int64) {
	rw.field(name)
	rw.b = strconv.AppendInt(rw.b, v, 10)
}

func (rw *rowWriter) string(name, v string) {
	rw.field(name)
	rw.b = appendString(rw.b, v)
}

// strings appends a string array; nil is null, as encoding/json has it.
func (rw *rowWriter) strings(name string, vs []string) {
	rw.field(name)
	if vs == nil {
		rw.b = append(rw.b, "null"...)
		return
	}
	rw.b = append(rw.b, '[')
	for i, v := range vs {
		if i > 0 {
			rw.b = append(rw.b, ',')
		}
		rw.b = appendString(rw.b, v)
	}
	rw.b = append(rw.b, ']')
}

// rows appends rows, ranked from 1 in the order given, as an array of
// {"rank","key","values"}. The values object is keyed by column name in
// ascending byte order, a map's order; a name the columns repeat appears
// once, with the value of its last column, as the map kept it.
func (rw *rowWriter) rows(name string, rows []tsv.Row, cols []string) {
	order := rw.order[:0]
	for i := range cols { // insertion sort: a few dozen columns at most
		order = append(order, i)
		for j := len(order) - 1; j > 0 && cols[order[j-1]] > cols[i]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	n := 0
	for k, c := range order {
		if k+1 == len(order) || cols[order[k+1]] != cols[c] {
			order[n] = c
			n++
		}
	}
	rw.order = order[:n]

	rw.field(name)
	b := append(rw.b, '[')
	for i := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"rank":`...), int64(i+1), 10)
		b = appendString(append(b, `,"key":`...), rows[i].Key)
		b = append(b, `,"values":{`...)
		for k, c := range rw.order {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendFloat(append(appendString(b, cols[c]), ':'), rows[i].Values[c])
		}
		b = append(b, "}}"...)
	}
	rw.b = append(b, ']')
}

// appendString appends s quoted as encoding/json's Encoder does by
// default: '"', '\\' and the control characters escaped (\b \f \n \r \t
// short, the rest as \u00XX), '<', '>' and '&' escaped for HTML, U+2028
// and U+2029 escaped for JavaScript, and each byte of invalid UTF-8
// replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// decimal that reads back as v, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent unpadded (1e-07 → 1e-7).
// NaN and ±Inf, which JSON has no number for, are null.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
