package service

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"tlc"
)

// maxPooledBuf is the capacity above which an answer buffer is dropped
// instead of going back to the pool, so that one huge answer does not pin
// its memory.
const maxPooledBuf = 1 << 20

// bufPool recycles the buffers /query writes its answers through.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeAnswer writes the /query body: the bytes encoding/json writes for
// a queryResponse (HTML escaping off, trailing newline), built by hand.
// Each tree's XML is appended from the result into one scratch buffer and
// JSON-escaped into one body buffer, which is written once.
func writeAnswer(w http.ResponseWriter, engine string, res *tlc.Result, hit bool, elapsedMS float64) {
	scratch, body := bufPool.Get().(*[]byte), bufPool.Get().(*[]byte)
	defer putBuf(scratch)
	defer putBuf(body)
	b := append((*body)[:0], `{"engine":`...)
	b = appendJSONString(b, []byte(engine))
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(res.Len()), 10)
	b = append(b, `,"results":[`...)
	for i := 0; i < res.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		*scratch = res.AppendTreeXML((*scratch)[:0], i)
		b = appendJSONString(b, *scratch)
	}
	b = append(b, `],"cache_hit":`...)
	b = strconv.AppendBool(b, hit)
	b = append(b, `,"elapsed_ms":`...)
	// Whole nanoseconds in milliseconds never leave [1e-6, 1e21), where
	// encoding/json writes a float64 in this shortest 'f' form too.
	b = strconv.AppendFloat(b, elapsedMS, 'f', -1, 64)
	*body = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(*body)
}

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping off: quote, backslash and control bytes
// escaped, each invalid UTF-8 byte as \ufffd, U+2028 and U+2029 escaped.
func appendJSONString(dst, s []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(s[i:])
		}
		plain := r >= 0x20 && r != '"' && r != '\\' && r != '\u2028' && r != '\u2029'
		if i += size; plain && (r != utf8.RuneError || size > 1) {
			continue
		}
		dst = append(dst, s[start:i-size]...)
		start = i
		switch r {
		case '"', '\\':
			dst = append(dst, '\\', byte(r))
		case '\b', '\t', '\n', '\f', '\r':
			dst = append(dst, '\\', "btn_fr"[r-'\b'])
		default: // a control byte, U+2028/U+2029, or U+FFFD for a byte that is not UTF-8
			dst = append(dst, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
	}
	return append(append(dst, s[start:]...), '"')
}
