package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
)

// This file holds the request reader to encoding/json — the decode the
// server used before it, kept here as the reference — and pins the
// hand-appended response lines to json.Marshal.

// refDecode is the reference: json.Decoder with DisallowUnknownFields, and
// nothing but whitespace after the one value.
func refDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// triplesEqual compares decoded triples, nil and empty alike.
func triplesEqual(ref []TripleJSON, got []store.Triple) bool {
	if len(ref) != len(got) {
		return false
	}
	for i := range ref {
		if store.Triple(ref[i]) != got[i] {
			return false
		}
	}
	return true
}

// checkBody decodes body as both request types with the reader and the
// reference: they must accept or reject together, and agree on what they
// accept.
func checkBody(t *testing.T, body []byte) {
	t.Helper()
	var ref, got QueryRequest
	rerr := refDecode(body, &ref)
	gerr := (&wireReader{buf: body}).query(&got)
	if (rerr == nil) != (gerr == nil) || rerr == nil && ref != got {
		t.Fatalf("query body %q: reader %+v, %v; encoding/json %+v, %v", body, got, gerr, ref, rerr)
	}
	var mref MutateRequest
	var add, remove []store.Triple
	rerr = refDecode(body, &mref)
	gerr = (&wireReader{buf: body}).mutation(&add, &remove)
	if (rerr == nil) != (gerr == nil) || rerr == nil && !(triplesEqual(mref.Add, add) && triplesEqual(mref.Remove, remove)) {
		t.Fatalf("mutation body %q: reader %+v %+v, %v; encoding/json %+v, %v", body, add, remove, gerr, mref, rerr)
	}
}

// requestSeeds are bodies at each of the reader's rules.
var requestSeeds = []string{
	`{"bgp":"?x type car","mode":"expand","limit":5}`,
	`{"add":[{"subject":"a","predicate":"p","object":"b"}],"remove":[]}`,
	// Escapes, surrogate pairs, lone surrogates, bytes that are not UTF-8.
	`{"bgp":"\u003fx \"t\\y/pe\" \/ \b\f\n\r\t c\u00e9\ud83d\ude00"}`,
	`{"bgp":"\ud83d x \ude00 \ud83d\u0041 \ud83d\n \udc00\ud83d\ude00 \ud800\ud800\udc00"}`,
	"{\"bgp\":\"\xff a \xe2\x80 \xed\xa0\x80 \xef\xbf\xbd\"}",
	"{\"bgp\":\"a\tb\"}", `{"bgp":"\x"}`, `{"bgp":"\u12"}`, `{"bgp":"\u12G4"}`,
	// Keys: case, ſ and K folding, escaped keys, unknown fields.
	`{"BGP":"?x p o","Mode":"plain","LIMIT":1}`, `{"ſubject":1}`,
	`{"add":[{"ſubject":"s","predicate":"p","object":"o"}]}`,
	"{\"remove\":[{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"o\"}]}",
	"{\"limit\":1,\"\u212aey\":1}", "{\"add\":[{\"subject\":\"s\",\"predicate\":\"p\",\"object\":\"o\",\"\u212a\":1}]}",
	`{"\u0062gp":"x"}`, `{"bqp":"x"}`, `{"":1}`, `{"add":[{"subj":"s"}]}`,
	// A repeated key decodes again into the same value.
	`{"add":[{"subject":"a","predicate":"p","object":"b"},{"subject":"c","predicate":"q","object":"d"}],"add":[{"subject":"x"}]}`,
	`{"add":[{"subject":"a","predicate":"p","object":"b"},{"subject":"c"}],"add":[{"object":"z"}],"add":[{},{}]}`,
	`{"add":[{"subject":"a","predicate":"p","object":"b"}],"add":[],"add":[{"subject":"x"}]}`,
	`{"add":[{"subject":"a"}],"add":null,"add":[{"object":"o"}]}`,
	`{"bgp":"a","bgp":null,"mode":"x","mode":"plain"}`,
	// null at the top, as a field, as an array and as an element.
	`null`, ` null `, `{"bgp":null,"mode":null,"limit":null}`, `{"add":null,"remove":null}`,
	`{"add":[null,{"subject":"s"}]}`, `{"add":[{"subject":null}]}`, `nul`, `{"bgp":nul}`,
	// Numbers.
	`{"limit":1e2}`, `{"limit":-0}`, `{"limit":1.0}`, `{"limit":12345678901234567890}`,
	`{"limit":-9223372036854775808}`, `{"limit":9223372036854775807}`, `{"limit":01}`,
	`{"limit":-}`, `{"limit":"5"}`, `{"limit":true}`, `{"limit":1.}`, `{"limit":2E+1}`,
	// Wrong types and broken syntax.
	`{"bgp":5}`, `{"bgp":["x"]}`, `{"add":{}}`, `{"add":[1]}`, `{"add":["x"]}`, `[]`, `"x"`, `5`, `true`,
	`{"add":[{"subject":"s"},]}`, `{"bgp":"x",}`, `{"bgp" "x"}`, `{bgp:"x"}`, `{"bgp":"x"`, `{`, ``, "\"",
	// Whitespace, and anything after the value.
	" \t\r\n{ \t\r\n\"bgp\" \t\r\n: \t\r\n\"x\" \t\r\n} \t\r\n", "\f{}", "{}\v", "\u00a0{}",
	`{}}`, `{}]`, `{}{}`, `{} {"limit":1}`, `{}x`, `{}null`, `null null`,
}

// FuzzRequestBodies holds the request reader to the encoding/json decode it
// replaced, on both request types.
func FuzzRequestBodies(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkBody)
}

// mutationDecodeOverhead is what a /triples decode allocates besides its
// terms: the body's http.MaxBytesReader, and the triple slice's appends as it
// doubles to 64 (1, 2, 4, …, 64: seven).
const mutationDecodeOverhead = 1 + 7

// TestMutationDecodeAllocs holds a 64-triple /triples body to one string per
// term plus mutationDecodeOverhead.
func TestMutationDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const n = 64
	var req MutateRequest
	for i := 0; i < n; i++ {
		id := strconv.Itoa(i)
		req.Add = append(req.Add, TripleJSON{Subject: "s" + id, Predicate: "p" + id, Object: "o" + id})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/triples", rd)
	w := httptest.NewRecorder()
	var adds, removes []store.Triple
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		adds, removes = nil, nil
		if !readRequest(w, r, func(d *wireReader) error { return d.mutation(&adds, &removes) }) {
			t.Fatalf("the body did not decode: %s", w.Body)
		}
	})
	if len(adds) != n || adds[n-1] != store.Triple(req.Add[n-1]) {
		t.Fatalf("decoded %d triples, last %+v", len(adds), adds[len(adds)-1])
	}
	t.Logf("a %d-triple /triples body decodes in %v allocations", n, allocs)
	if limit := 3*n + mutationDecodeOverhead; allocs > float64(limit) {
		t.Fatalf("a %d-triple body allocates %v times, above 3 a triple plus %d (%d)", n, allocs, mutationDecodeOverhead, limit)
	}
}

// TestAppendedLinesMatchMarshal pins the hand-appended trailer and /triples
// response to what encoding/json writes for the same values.
func TestAppendedLinesMatchMarshal(t *testing.T) {
	for _, tr := range []QueryTrailer{
		{Done: true},
		{Done: true, Solutions: 1024, Truncated: true, Cached: true, ElapsedUS: 1<<62 + 7, Generation: new(uint64)},
		{Done: true, Solutions: 2, ElapsedUS: 9, Generation: &[]uint64{1<<64 - 1}[0]},
		{Done: true, Solutions: 3, ElapsedUS: -1, Error: "query interrupted after 1.5s; \"partial\" <results> & \\ \n\t\x01 é \u2028 \xff"},
	} {
		want, _ := json.Marshal(tr)
		if got := appendTrailer(nil, tr); string(got) != string(want)+"\n" {
			t.Errorf("trailer %+v:\n got %q\nwant %q", tr, got, want)
		}
	}
	for _, m := range []MutateResponse{{}, {Added: 64, Removed: 3, Asserted: 100000, Inferred: -1}} {
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(m) // writeJSON's bytes
		if got := appendMutateResponse(nil, m); string(got) != want.String() {
			t.Errorf("mutation response %+v:\n got %q\nwant %q", m, got, want.String())
		}
	}
}

// TestStringsDoNotAliasTheBody checks that decoded strings are their own
// memory: the pooled body they came from is overwritten by the next request.
func TestStringsDoNotAliasTheBody(t *testing.T) {
	body := []byte(`{"add":[{"subject":"kombi","predicate":"type","object":"car"}],"remove":[{"subject":"a\u00e9","predicate":"p","object":"o"}]}`)
	d := &wireReader{buf: bytes.Clone(body)}
	var add, remove []store.Triple
	if err := d.mutation(&add, &remove); err != nil {
		t.Fatal(err)
	}
	for i := range d.buf {
		d.buf[i] = 'X'
	}
	d.str = append(d.str[:0], strings.Repeat("Y", 16)...)
	want := []store.Triple{{Subject: "kombi", Predicate: "type", Object: "car"}, {Subject: "aé", Predicate: "p", Object: "o"}}
	if got := append(add, remove...); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the buffers were reused the triples read %+v, want %+v", got, want)
	}
}
