package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/store"
)

// This file is the request side of the wire protocol: the one reader of the
// two request bodies, QueryRequest and MutateRequest. A body is read whole
// into a pooled buffer and scanned in place, without reflection, with the
// semantics of encoding/json's Decoder under DisallowUnknownFields plus a
// check that only ` \t\r\n` follows the one value. Keys match a field exactly
// or case-insensitively (bytes.EqualFold folds these ASCII names as
// encoding/json does, ſ and K included). null leaves a field alone but makes
// an array nil; a top-level null is the empty request. A repeated key decodes
// again into the same value, so a second array overwrites the first's
// elements in place and keeps the fields a later element omits. \uXXXX
// escapes and surrogate pairs are decoded; a lone surrogate or a byte that is
// not UTF-8 becomes U+FFFD. limit is an integer literal in int range.
// FuzzRequestBodies holds the reader to encoding/json. A reader given the
// store's dictionary decodes a name it holds to the dictionary's own string,
// so only a name not yet interned costs an allocation.

// maxBodyBytes caps a request body; a larger one is answered 413.
const maxBodyBytes = 1 << 20

// wirePool recycles request readers and their buffers.
var wirePool = sync.Pool{New: func() any { return new(wireReader) }}

// wireReader is one request body and the decoder's position in it.
type wireReader struct {
	body bytes.Buffer // what the request's body held
	buf  []byte       // body's bytes
	pos  int
	// str holds the decoded bytes of the last string that had escapes or
	// bytes that are not UTF-8; any other string is a slice of buf.
	str []byte
	// dict, when set, is the store whose interned names string returns as
	// they are.
	dict *store.Store
}

// readRequest reads the body whole, capped at maxBodyBytes, and hands it to
// decode. On failure it has written the error response — 413 for a body over
// the cap, whatever its first bytes (splitting the request could succeed),
// 400 for a body that does not decode (retrying cannot) — and reports false.
// Nothing decode keeps may point into the body: the buffer is reused. dict,
// when not nil, is the store whose names the decoded strings share.
func readRequest(w http.ResponseWriter, r *http.Request, dict *store.Store, decode func(*wireReader) error) bool {
	d := wirePool.Get().(*wireReader)
	d.body.Reset()
	d.dict = dict
	_, err := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		d.buf, d.pos = d.body.Bytes(), 0
		err = decode(d)
	}
	if d.body.Cap() > maxPooledBody {
		d.body = bytes.Buffer{}
	}
	if cap(d.str) > maxPooledBody {
		d.str = nil
	}
	d.buf, d.dict = nil, nil
	wirePool.Put(d)
	if err == nil {
		return true
	}
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the server limit of %d bytes", mbe.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return false
}

// query decodes the body as a QueryRequest.
func (d *wireReader) query(req *QueryRequest) error {
	return d.top(func(key []byte) error {
		switch {
		case isField(key, "bgp"):
			return d.string(key, &req.BGP)
		case isField(key, "mode"):
			return d.string(key, &req.Mode)
		case isField(key, "limit"):
			return d.int(key, &req.Limit)
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// mutation decodes the body as a MutateRequest, straight into the engine's
// triples.
func (d *wireReader) mutation(add, remove *[]store.Triple) error {
	return d.top(func(key []byte) error {
		switch {
		case isField(key, "add"):
			return d.triples(key, add)
		case isField(key, "remove"):
			return d.triples(key, remove)
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// isField reports whether a key names the field called name.
func isField(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// top decodes the body's one value: null or an object whose members field
// decodes, then nothing but whitespace.
func (d *wireReader) top(field func(key []byte) error) error {
	d.space()
	if !d.null() {
		if d.peek() != '{' {
			return d.unexpected("a JSON object")
		}
		if err := d.object(field); err != nil {
			return err
		}
	}
	if d.space(); d.pos < len(d.buf) {
		return fmt.Errorf("unexpected data after the JSON value at offset %d", d.pos)
	}
	return nil
}

// object reads the object at pos, calling field with each member's key with
// pos at its value. The key is valid until field decodes a string.
func (d *wireReader) object(field func(key []byte) error) error {
	d.pos++ // '{'
	if d.space(); d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("an object key")
		}
		key, err := d.quoted()
		if err != nil {
			return err
		}
		if d.space(); d.peek() != ':' {
			return d.unexpected("':'")
		}
		d.pos++
		d.space()
		if err := field(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// string decodes a string or null member into *dst. The value is never a
// slice of the pooled body: the modes are their constants, a name d.dict
// holds is the dictionary's string, and any other value is its own string.
func (d *wireReader) string(key []byte, dst *string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.wrongType(key, "a string")
	}
	s, err := d.quoted()
	if err != nil {
		return err
	}
	for _, m := range [...]string{ModeMaterialized, ModeExpand, ModePlain} {
		if string(s) == m {
			*dst = m
			return nil
		}
	}
	if d.dict != nil {
		if name, ok := d.dict.InternedName(s); ok {
			*dst = name
			return nil
		}
	}
	*dst = string(s)
	return nil
}

// int decodes an integer literal or null member into *dst. A fraction or an
// exponent after the digits is an error either way: the caller finds no ','
// or '}' there.
func (d *wireReader) int(key []byte, dst *int) error {
	if d.null() {
		return nil
	}
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	if d.peek() == '0' {
		d.pos++ // a leading zero is a number of its own
	} else if !d.digits() {
		return d.wrongType(key, "an integer")
	}
	n, err := strconv.ParseInt(string(d.buf[start:d.pos]), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("field %q: %s is not an integer in range", key, d.buf[start:d.pos])
	}
	*dst = int(n)
	return nil
}

// triples decodes an array of triple objects, or null (nil), into *dst,
// reusing its elements as encoding/json does.
func (d *wireReader) triples(key []byte, dst *[]store.Triple) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if d.peek() != '[' {
		return d.wrongType(key, "an array of triples")
	}
	d.pos++
	if d.space(); d.peek() == ']' {
		d.pos++
		*dst = []store.Triple{} // empty, not nil, and nothing left to reuse
		return nil
	}
	ts := *dst
	for i := 0; ; i++ {
		if i < cap(ts) {
			ts = ts[:i+1]
		} else {
			ts = append(ts[:i], store.Triple{})
		}
		if err := d.triple(&ts[i]); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case ']':
			d.pos++
			*dst = ts[:i+1]
			return nil
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

// triple decodes one triple object, or null (no change), into *t.
func (d *wireReader) triple(t *store.Triple) error {
	if d.null() {
		return nil
	}
	if d.peek() != '{' {
		return d.unexpected("a triple object")
	}
	return d.object(func(key []byte) error {
		switch {
		case isField(key, "subject"):
			return d.string(key, &t.Subject)
		case isField(key, "predicate"):
			return d.string(key, &t.Predicate)
		case isField(key, "object"):
			return d.string(key, &t.Object)
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// quoted reads the string literal at pos. A string without escapes whose
// bytes are UTF-8 is returned as a slice of the body; any other is decoded
// into d.str.
func (d *wireReader) quoted() ([]byte, error) {
	start := d.pos + 1
	ascii := true
	for i := start; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			if s := d.buf[start:i]; ascii || utf8.Valid(s) {
				d.pos = i + 1
				return s, nil
			}
			return d.unquote(start)
		case c == '\\':
			return d.unquote(start)
		case c < ' ':
			d.pos = i
			return nil, d.unexpected("a string character")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = len(d.buf)
	return nil, d.unexpected("'\"'")
}

// unquote decodes the string whose bytes begin at start into d.str.
func (d *wireReader) unquote(start int) ([]byte, error) {
	out := d.str[:0]
	d.pos = start
	for {
		c := d.peek()
		switch {
		case d.pos == len(d.buf):
			return nil, d.unexpected("'\"'")
		case c == '"':
			d.pos++
			d.str = out
			return out, nil
		case c < ' ':
			return nil, d.unexpected("a string character")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			d.pos++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.buf[d.pos:])
			out = utf8.AppendRune(out, r) // RuneError for a byte that is not UTF-8
			d.pos += n
		default:
			d.pos++
			if e := strings.IndexByte(`"\/bfnrt`, d.peek()); e >= 0 {
				out = append(out, "\"\\/\b\f\n\r\t"[e])
				d.pos++
				continue
			}
			r := d.hex4()
			if r < 0 {
				return nil, d.unexpected("an escape")
			}
			if utf16.IsSurrogate(r) {
				// A pair is consumed whole; a lone half is U+FFFD, and what
				// follows it is read on its own.
				hi := r
				r = utf8.RuneError
				if save := d.pos; d.peek() == '\\' {
					d.pos++
					if pair := utf16.DecodeRune(hi, d.hex4()); pair != utf8.RuneError {
						r = pair
					} else {
						d.pos = save
					}
				}
			}
			out = utf8.AppendRune(out, r)
		}
	}
}

// hex4 reads the 'u' and four hex digits of a \u escape at pos, or returns
// -1 and leaves pos if they are not there.
func (d *wireReader) hex4() rune {
	if d.peek() != 'u' || d.pos+5 > len(d.buf) {
		return -1
	}
	n, err := strconv.ParseUint(string(d.buf[d.pos+1:d.pos+5]), 16, 16)
	if err != nil {
		return -1
	}
	d.pos += 5
	return rune(n)
}

// digits skips a run of decimal digits and reports whether it had any.
func (d *wireReader) digits() bool {
	start := d.pos
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.pos++
	}
	return d.pos > start
}

// null consumes a null literal at pos and reports whether there was one.
func (d *wireReader) null() bool {
	if bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		d.pos += len("null")
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *wireReader) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek is the byte at pos, or 0 at the end of the body.
func (d *wireReader) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// unexpected is the syntax error at pos, where want was expected.
func (d *wireReader) unexpected(want string) error {
	if d.pos >= len(d.buf) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.buf[d.pos], d.pos, want)
}

// wrongType is the error for a member whose value is not of its field's type.
func (d *wireReader) wrongType(key []byte, want string) error {
	return fmt.Errorf("field %q at offset %d: want %s or null", key, d.pos, want)
}
