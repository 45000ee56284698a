package repl_test

// Wire golden: the exact bytes and X-Repl-* headers of both replication
// endpoints for one fixed history. The protocol has two ends and a change to
// either must not move a byte the other reads; this file is the pin. The
// bodies are the data directory's own formats — log frames and a segment —
// shown as hex dumps. It drives a real durable server through its public
// handler, so it does not care which package the handlers live in.

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/reason"
	"repro/internal/repl"
	"repro/internal/store"
)

// goldenHistory applies the fixed write history to a primary's reasoner: a
// one-sided add, a two-sided write (a triple on both sides included), a
// remove, and a batch — generations 1 through 4.
func goldenHistory(t *testing.T, r *reason.Reasoner) {
	t.Helper()
	typ := func(s, o string) store.Triple {
		return store.Triple{Subject: s, Predicate: store.TypePredicate, Object: o}
	}
	for i, w := range []struct{ add, remove []store.Triple }{
		{add: []store.Triple{typ("item-2", "c0")}},
		{add: []store.Triple{typ("item-3", "c1"), typ("item-4", "c1")}, remove: []store.Triple{typ("item-4", "c1"), typ("item-0", "c0")}},
		{remove: []store.Triple{{Subject: "c1", Predicate: "subClassOf", Object: "c2"}}},
		{add: []store.Triple{typ("item \"5\"", "c2"), {Subject: "c2", Predicate: "subClassOf", Object: "c3"}}},
	} {
		if _, _, err := r.Apply(w.add, w.remove, nil); err != nil {
			t.Fatal(err)
		}
		if got := r.Generation(); got != uint64(i+1) {
			t.Fatalf("write %d left the primary at generation %d", i+1, got)
		}
	}
}

// wireTranscript renders one response the way the golden states it: status,
// the content headers and every X-Repl-* header in sorted order, a blank
// line, the body — a binary one as a hex dump.
func wireTranscript(rec *httptest.ResponseRecorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", rec.Code)
	var names []string
	for name := range rec.Header() {
		if strings.HasPrefix(name, "X-Repl-") || name == "Content-Type" || name == "Content-Length" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s: %s\n", name, rec.Header().Get(name))
	}
	b.WriteString("\n")
	if rec.Header().Get("Content-Type") == "application/octet-stream" {
		b.WriteString(hex.Dump(rec.Body.Bytes()))
	} else {
		b.Write(rec.Body.Bytes())
	}
	return b.String()
}

// deltasFrom is the /repl/deltas target that reads from position at.
func deltasFrom(at store.Position, query string) string {
	return fmt.Sprintf("%s?from=%d&digest=%v%s", repl.DeltasPath, at.Gen, at.Digest, query)
}

func TestWireGolden(t *testing.T) {
	psrv, _ := newPrimary(t)
	seeded := psrv.Reasoner().Base().Position()
	goldenHistory(t, psrv.Reasoner())
	latest := psrv.Reasoner().Base().Position()
	// The same history, checkpointed: the seed's position is no longer on
	// the live log.
	aged, agedEng := openPrimary(t, t.TempDir(), -1)
	goldenHistory(t, aged.Reasoner())
	if err := agedEng.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	get := func(h http.Handler, target string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return wireTranscript(rec)
	}
	for _, tc := range []struct {
		name, target string
		handler      http.Handler
		want         string
	}{
		{"snapshot", "/repl/snapshot", psrv.Handler(), `200
Content-Length: 299
Content-Type: application/octet-stream
X-Repl-Digest: 582378e4db4b4adcd600a167f695be88
X-Repl-Generation: 4

00000000  4f 4e 54 4f 53 45 47 34  6b 00 00 00 81 76 03 d0  |ONTOSEG4k....v..|
00000010  00 00 00 00 0f 00 00 00  06 69 74 65 6d 2d 30 04  |.........item-0.|
00000020  74 79 70 65 02 63 30 06  69 74 65 6d 2d 31 02 63  |type.c0.item-1.c|
00000030  31 0a 73 75 62 43 6c 61  73 73 4f 66 02 63 32 0d  |1.subClassOf.c2.|
00000040  73 75 62 50 72 6f 70 65  72 74 79 4f 66 06 64 6f  |subPropertyOf.do|
00000050  6d 61 69 6e 05 72 61 6e  67 65 06 69 74 65 6d 2d  |main.range.item-|
00000060  32 06 69 74 65 6d 2d 33  06 69 74 65 6d 2d 34 08  |2.item-3.item-4.|
00000070  69 74 65 6d 20 22 35 22  02 63 33 50 00 00 00 fa  |item "5".c3P....|
00000080  92 fa 54 06 00 00 00 00  00 00 00 02 00 00 00 05  |..T.............|
00000090  00 00 00 04 00 00 00 03  00 00 00 01 00 00 00 04  |................|
000000a0  00 00 00 06 00 00 00 05  00 00 00 0e 00 00 00 0a  |................|
000000b0  00 00 00 01 00 00 00 02  00 00 00 0b 00 00 00 01  |................|
000000c0  00 00 00 04 00 00 00 0d  00 00 00 01 00 00 00 06  |................|
000000d0  00 00 00 40 00 00 00 3f  c8 88 44 01 00 00 00 00  |...@...?..D.....|
000000e0  00 00 00 0c 00 00 00 00  00 00 00 04 00 00 00 00  |................|
000000f0  00 00 00 dc 4a 4b db e4  78 23 58 88 be 95 f6 67  |....JK..x#X....g|
00000100  a1 00 d6 00 00 00 00 0f  00 00 00 06 00 00 00 00  |................|
00000110  00 00 00 00 00 00 00 00  00 00 00 d3 00 00 00 00  |................|
00000120  00 00 00 4f 4e 54 4f 53  45 47 45                 |...ONTOSEGE|
`},
		{"deltas", deltasFrom(seeded, ""), psrv.Handler(), `200
Content-Length: 502
Content-Type: application/octet-stream
X-Repl-Digest: 582378e4db4b4adcd600a167f695be88
X-Repl-Generation: 4

00000000  1f 00 00 00 2d a9 0a 74  01 03 00 00 00 00 00 00  |....-..t........|
00000010  00 07 00 00 00 01 00 00  00 0d 73 75 62 50 72 6f  |..........subPro|
00000020  70 65 72 74 79 4f 66 18  00 00 00 29 28 7a 28 01  |pertyOf....)(z(.|
00000030  04 00 00 00 00 00 00 00  08 00 00 00 01 00 00 00  |................|
00000040  06 64 6f 6d 61 69 6e 17  00 00 00 93 06 30 61 01  |.domain......0a.|
00000050  05 00 00 00 00 00 00 00  09 00 00 00 01 00 00 00  |................|
00000060  05 72 61 6e 67 65 18 00  00 00 7e e7 45 ce 01 06  |.range....~.E...|
00000070  00 00 00 00 00 00 00 0a  00 00 00 01 00 00 00 06  |................|
00000080  69 74 65 6d 2d 32 35 00  00 00 c0 56 5d 4d 06 07  |item-25....V]M..|
00000090  00 00 00 00 00 00 00 01  00 00 00 00 00 00 00 86  |................|
000000a0  a8 50 f5 fa 1d ef 1c 1e  56 34 e9 01 7a 67 10 01  |.P......V4..zg..|
000000b0  00 00 00 00 00 00 00 0a  00 00 00 01 00 00 00 02  |................|
000000c0  00 00 00 1f 00 00 00 22  32 59 3f 01 08 00 00 00  |......."2Y?.....|
000000d0  00 00 00 00 0b 00 00 00  02 00 00 00 06 69 74 65  |.............ite|
000000e0  6d 2d 33 06 69 74 65 6d  2d 34 59 00 00 00 ad 8f  |m-3.item-4Y.....|
000000f0  79 fb 06 09 00 00 00 00  00 00 00 02 00 00 00 00  |y...............|
00000100  00 00 00 79 16 b0 a7 cc  a9 6f 5d a0 75 23 76 69  |...y.....o].u#vi|
00000110  4e 09 81 02 00 00 00 02  00 00 00 0b 00 00 00 01  |N...............|
00000120  00 00 00 04 00 00 00 0c  00 00 00 01 00 00 00 04  |................|
00000130  00 00 00 0c 00 00 00 01  00 00 00 04 00 00 00 00  |................|
00000140  00 00 00 01 00 00 00 02  00 00 00 35 00 00 00 50  |...........5...P|
00000150  97 2b 82 06 0a 00 00 00  00 00 00 00 03 00 00 00  |.+..............|
00000160  00 00 00 00 53 87 f6 c9  7c 31 9b 83 ce 38 93 a9  |....S...|1...8..|
00000170  73 13 37 2b 00 00 00 00  01 00 00 00 04 00 00 00  |s.7+............|
00000180  05 00 00 00 06 00 00 00  1d 00 00 00 86 c4 99 aa  |................|
00000190  01 0b 00 00 00 00 00 00  00 0d 00 00 00 02 00 00  |................|
000001a0  00 08 69 74 65 6d 20 22  35 22 02 63 33 41 00 00  |..item "5".c3A..|
000001b0  00 30 8f a2 a5 06 0c 00  00 00 00 00 00 00 04 00  |.0..............|
000001c0  00 00 00 00 00 00 dc 4a  4b db e4 78 23 58 88 be  |.......JK..x#X..|
000001d0  95 f6 67 a1 00 d6 02 00  00 00 00 00 00 00 0d 00  |..g.............|
000001e0  00 00 01 00 00 00 06 00  00 00 06 00 00 00 05 00  |................|
000001f0  00 00 0e 00 00 00                                 |......|
`},
		{"deltas paged", deltasFrom(seeded, "&max=2"), psrv.Handler(), `200
Content-Length: 331
Content-Type: application/octet-stream
X-Repl-Digest: 582378e4db4b4adcd600a167f695be88
X-Repl-Generation: 4

00000000  1f 00 00 00 2d a9 0a 74  01 03 00 00 00 00 00 00  |....-..t........|
00000010  00 07 00 00 00 01 00 00  00 0d 73 75 62 50 72 6f  |..........subPro|
00000020  70 65 72 74 79 4f 66 18  00 00 00 29 28 7a 28 01  |pertyOf....)(z(.|
00000030  04 00 00 00 00 00 00 00  08 00 00 00 01 00 00 00  |................|
00000040  06 64 6f 6d 61 69 6e 17  00 00 00 93 06 30 61 01  |.domain......0a.|
00000050  05 00 00 00 00 00 00 00  09 00 00 00 01 00 00 00  |................|
00000060  05 72 61 6e 67 65 18 00  00 00 7e e7 45 ce 01 06  |.range....~.E...|
00000070  00 00 00 00 00 00 00 0a  00 00 00 01 00 00 00 06  |................|
00000080  69 74 65 6d 2d 32 35 00  00 00 c0 56 5d 4d 06 07  |item-25....V]M..|
00000090  00 00 00 00 00 00 00 01  00 00 00 00 00 00 00 86  |................|
000000a0  a8 50 f5 fa 1d ef 1c 1e  56 34 e9 01 7a 67 10 01  |.P......V4..zg..|
000000b0  00 00 00 00 00 00 00 0a  00 00 00 01 00 00 00 02  |................|
000000c0  00 00 00 1f 00 00 00 22  32 59 3f 01 08 00 00 00  |......."2Y?.....|
000000d0  00 00 00 00 0b 00 00 00  02 00 00 00 06 69 74 65  |.............ite|
000000e0  6d 2d 33 06 69 74 65 6d  2d 34 59 00 00 00 ad 8f  |m-3.item-4Y.....|
000000f0  79 fb 06 09 00 00 00 00  00 00 00 02 00 00 00 00  |y...............|
00000100  00 00 00 79 16 b0 a7 cc  a9 6f 5d a0 75 23 76 69  |...y.....o].u#vi|
00000110  4e 09 81 02 00 00 00 02  00 00 00 0b 00 00 00 01  |N...............|
00000120  00 00 00 04 00 00 00 0c  00 00 00 01 00 00 00 04  |................|
00000130  00 00 00 0c 00 00 00 01  00 00 00 04 00 00 00 00  |................|
00000140  00 00 00 01 00 00 00 02  00 00 00                 |...........|
`},
		{"deltas caught up", deltasFrom(latest, ""), psrv.Handler(), `200
Content-Length: 0
Content-Type: application/octet-stream
X-Repl-Digest: 582378e4db4b4adcd600a167f695be88
X-Repl-Generation: 4

`},
		{"deltas gone", deltasFrom(seeded, ""), aged.Handler(), `410
Content-Type: application/json

{"error":"position (0, 5b60add925c94e8e935e295ab6e49307) is not on the primary's live log (it was checkpointed, or belongs to another history); fetch a fresh /repl/snapshot"}
`},
		{"deltas bad from", "/repl/deltas?from=x", psrv.Handler(), `400
Content-Type: application/json

{"error":"from must be a generation number: strconv.ParseUint: parsing \"x\": invalid syntax"}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := get(tc.handler, tc.target); got != tc.want {
				t.Errorf("GET %s\n--- got ---\n%s\n--- want ---\n%s", tc.target, got, tc.want)
			}
		})
	}
}
