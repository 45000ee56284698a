package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// FuzzDecodeRecord throws arbitrary bytes at the record decoder: whatever
// the input, it must return cleanly — an error or a record, never a panic or
// a length-driven runaway allocation (the decoder bounds-checks every length
// against the bytes actually present).
func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeDict(nil, 1, 0, dictRun("a", "bb", "")))
	at := store.Position{Gen: 3, Digest: store.Digest{0x0123456789abcdef, 0xfedcba9876543210}}
	f.Add(encodeMutation(nil, 2, []store.IDTriple{{S: 0, P: 1, O: 2}, {S: 2, P: 1, O: 0}}, nil, at, true))
	f.Add(encodeMutation(nil, 3, nil, []store.IDTriple{{S: 7, P: 8, O: 9}}, at, false))
	f.Add([]byte{})
	f.Add([]byte{recDict, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add(encodeMutation(nil, 4, []store.IDTriple{{S: 0, P: 1, O: 2}, {S: 3, P: 1, O: 0}}, []store.IDTriple{{S: 0, P: 1, O: 2}, {S: 7, P: 8, O: 9}}, at, true))
	f.Add(encodeMutation(nil, 5, nil, nil, at, true))
	// Counts that sum past 32 bits over an empty body.
	f.Add([]byte{recPart, 6, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	// The position-less mutation record of older builds.
	f.Add([]byte{4, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		// Fixed-width bodies round-trip byte-exactly. Dict bodies may not
		// (binary.Uvarint tolerates non-canonical length encodings), so for
		// them re-encode and re-decode: the RECORD must survive unchanged.
		switch r.typ {
		case recPart, recWrite:
			adds, removes := r.sides()
			if again := encodeMutation(nil, r.seq, adds, removes, r.at, r.typ == recWrite); string(again) != string(payload) {
				t.Fatalf("mutation record round trip changed the payload: %x -> %x", payload, again)
			}
		case recDict:
			names := runNames(r.names)
			r2, err := decodeRecord(encodeDict(nil, r.seq, r.first, dictRun(names...)))
			if err != nil {
				t.Fatalf("re-encoded dict record does not decode: %v", err)
			}
			names2 := runNames(r2.names)
			if r2.first != r.first || len(names2) != len(names) {
				t.Fatalf("dict record round trip changed: %+v -> %+v", r, r2)
			}
			for i := range names {
				if names2[i] != names[i] {
					t.Fatalf("dict record round trip changed name %d: %q -> %q", i, names[i], names2[i])
				}
			}
		}
	})
}

// fuzzChainSegments is the fixed two-tier segment chain the recovery fuzzer
// lays down in front of the fuzzed log tail: a base segment and a young delta
// whose tombstone reaches into it, stamped. The script continues it.
func fuzzChainSegments() ([]segmentData, *logScript) {
	segs := []segmentData{
		patchOf(1, 2, 0, []string{"s", "p", "o"}, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil),
		patchOf(3, 4, 3, []string{"q"}, []store.IDTriple{{S: 0, P: 1, O: 3}}, []store.IDTriple{{S: 0, P: 1, O: 2}}),
	}
	return segs, stampChain(segs)
}

// recoverLogSeeds is FuzzRecoverLog's corpus of log tails, which
// FuzzLogReadersAgree shares: logs that stand alone, tails that continue the
// two-segment chain of fuzzChainSegments from seq 5, and cuts of both.
func recoverLogSeeds(tb testing.TB) [][]byte {
	var bare logScript
	var seed []byte
	seed = appendFrame(seed, bare.dict(1, "s", "p", "o"))
	seed = appendFrame(seed, bare.write(2, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil))
	seeds := [][]byte{seed, seed[:len(seed)-3], {}}
	// A tail that chains correctly onto the segment fixture (first seq 5,
	// re-adding the tombstoned triple), so the fuzzer explores the
	// chain-plus-valid-tail path too, not only early rejections.
	_, chainScript := fuzzChainSegments()
	cs := chainScript.clone()
	var chained []byte
	chained = appendFrame(chained, cs.write(5, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil))
	chained = appendFrame(chained, cs.write(6, nil, []store.IDTriple{{S: 0, P: 1, O: 3}}))
	// The same two changes as one two-sided record, then a record that adds
	// and removes one triple, then an empty one; and the first as a chunked
	// write, its part and its last chunk.
	cs = chainScript.clone()
	var twoSided []byte
	twoSided = appendFrame(twoSided, cs.write(5, []store.IDTriple{{S: 0, P: 1, O: 2}}, []store.IDTriple{{S: 0, P: 1, O: 3}}))
	twoSided = appendFrame(twoSided, cs.write(6, []store.IDTriple{{S: 3, P: 1, O: 0}}, []store.IDTriple{{S: 3, P: 1, O: 0}}))
	twoSided = appendFrame(twoSided, cs.write(7, nil, nil))
	cs = chainScript.clone()
	var chunked []byte
	chunked = appendFrame(chunked, cs.part(5, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil))
	chunked = appendFrame(chunked, cs.write(6, nil, []store.IDTriple{{S: 0, P: 1, O: 3}}))
	// A log the engine itself wrote — dictionary growth interleaved with add
	// batches, removes, two-sided transactions and a triple added and removed
	// by one record — cut on a commit boundary, inside a frame, and one byte
	// short of whole.
	built, offsets, _ := buildLog(tb)
	return append(seeds, chained, twoSided, twoSided[:len(twoSided)/2], chunked,
		built[:offsets[4]], built[:offsets[7]+11], built[:len(built)-1])
}

// fuzzReadBuf is the reader buffer a fuzz input's size picks: 1 to 4 096
// bytes, so the fuzzer moves frames, names and triples across buffer edges.
func fuzzReadBuf(size uint16) int { return 1 + int(size)%4096 }

// fuzzSizes are the sizes each seed is added with: a 13-byte buffer, which
// every frame, name and triple straddles, and a 4 096-byte one.
var fuzzSizes = []uint16{12, 4095}

// FuzzRecoverLog feeds arbitrary bytes to the whole recovery path — the only
// way the engine fills a store — as a log tail, once over a bare directory,
// once behind a two-segment tier chain, through readers of a buffer size the
// input picks (fuzzReadBuf): recovery must either succeed (torn tails are
// legal in the last file) or fail with an error — never panic, and never
// load a state the fold did not explicitly compose.
func FuzzRecoverLog(f *testing.F) {
	for _, seed := range recoverLogSeeds(f) {
		for _, size := range fuzzSizes {
			f.Add(seed, size)
		}
	}
	segs, _ := fuzzChainSegments()
	// Serialize the segment fixture once and lay its bytes down per exec.
	chainDisk := newMemDisk()
	for _, seg := range segs {
		if _, err := writeSegment(chainDisk, foldOf(seg), nil); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		d := newMemDisk()
		d.bufSize = fuzzReadBuf(size)
		d.put(walFileName(1), data)
		rec, err := recoverDir(store.New(), d)
		if err == nil {
			rec.file.Close()
		}

		// Same bytes as the tail of a segment-chain directory: the chain
		// covers seqs 1..4, so the tail file starts at 5 and the fuzzed data
		// must chain densely from there (or be refused).
		chain := chainDisk.clone()
		chain.bufSize = d.bufSize
		chain.put(walFileName(5), data)
		st := store.New()
		rec, err = recoverDir(st, chain)
		if err != nil {
			return
		}
		rec.file.Close()
		// Whatever the tail did, the chain's fold must have held: the base
		// add is tombstoned unless the tail explicitly re-added it.
		if st.Len() < 1 {
			t.Fatalf("chain recovery lost the young segment's add (store holds %d triples)", st.Len())
		}
	})
}

// FuzzLogReadersAgree holds the log's two readers to the sink table
// (tier.go): each input is laid down as wal-1 of an empty directory and
// folded as recovery folds its tail, and read as one log body by a zero
// Follower. A record-level fault fails both, at the same record with the
// same words; a torn tail is recovery's cut and the Follower's ErrTorn,
// after the same last write; a clean log leaves both at the same position.
// They may disagree only where the table says: a length claim beyond
// maxFramePayload is corruption to recovery and a torn body to the Follower.
// Both walk with a dictionary (logWalk.dict), so an empty or repeated name is
// refused by both at its record. What a load checks beyond the log — the
// digest of the loaded triples — is recovery's load and the replica's apply,
// not the log's reading.
func FuzzLogReadersAgree(f *testing.F) {
	for _, seed := range recoverLogSeeds(f) {
		f.Add(seed)
	}
	for _, bad := range badLogs() {
		f.Add(bad.body())
	}
	// A chunked write that stands alone, whole and cut after its part.
	var ls logScript
	var chunked []byte
	chunked = appendFrame(chunked, ls.dict(1, "s", "p", "o"))
	chunked = appendFrame(chunked, ls.part(2, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil))
	cut := len(chunked)
	chunked = appendFrame(chunked, ls.write(3, []store.IDTriple{{S: 2, P: 1, O: 0}}, nil))
	f.Add(chunked)
	f.Add(chunked[:cut])
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newMemDisk()
		d.put(walFileName(1), data)
		seg, live, recErr := foldWAL(d, []uint64{1}, -1, 0, 0, store.Position{}, store.New())

		var fol Follower
		n, folErr := fol.Read(data, func([]store.Triple, []store.Triple, store.Position) error { return nil })
		switch {
		case recErr != nil && errors.Is(folErr, ErrTorn):
			if !strings.Contains(recErr.Error(), fmt.Sprintf("beyond the %d-byte cap", maxFramePayload)) {
				t.Fatalf("recovery refused what the follower read as torn: %v; follower: %v", recErr, folErr)
			}
		case recErr != nil:
			want := strings.TrimPrefix(recErr.Error(), "durable: "+walFileName(1)+": ")
			if !errors.Is(folErr, ErrDiverged) || !strings.Contains(folErr.Error(), want) {
				t.Fatalf("recovery: %v\nfollower: %v\nwant the same refusal as ErrDiverged", recErr, folErr)
			}
		case folErr != nil && !errors.Is(folErr, ErrTorn):
			t.Fatalf("the follower refused what recovery folded: %v", folErr)
		case (folErr != nil) != (live.size < int64(len(data))):
			t.Fatalf("recovery kept %d of %d bytes, the follower read %v", live.size, len(data), folErr)
		case n != len(live.writes) || fol.Position() != seg.at:
			t.Fatalf("the follower applied %d writes to %v, recovery folded %d to %v", n, fol.Position(), len(live.writes), seg.at)
		}
	})
}

// frameKind is the kind of a segment's frame: the file does not say, its
// place in the layout does (segment.go).
type frameKind byte

const (
	frameName frameKind = iota
	frameTriple
	frameLast
)

func (k frameKind) String() string {
	if k > frameLast {
		return "no"
	}
	return [...]string{"name", "triple", "last"}[k]
}

// segFrame is one frame of a segment file: its kind, where it starts, where
// its payload starts and where it ends.
type segFrame struct {
	kind           frameKind
	off, body, end int
}

// segFrames delimits the frames of a well-formed segment file in file order
// from its layout: name frames until their counts reach the names its last
// frame claims, then triple frames up to the last frame, which the trailer
// places.
func segFrames(data []byte) ([]segFrame, error) {
	seg, err := openSegment("segment", bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	last := len(data) - tailSize
	var frames []segFrame
	for off, names := len(segMagic), 0; off <= last; {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			return nil, fmt.Errorf("no whole frame at offset %d", off)
		}
		kind := frameTriple
		switch {
		case off == last:
			kind = frameLast
		case names < seg.dict.N:
			kind = frameName
			names += int(binary.LittleEndian.Uint32(payload[4:]))
		}
		frames = append(frames, segFrame{kind, off, off + frameHeader, next})
		off = next
	}
	return frames, nil
}

// frameOf returns the frame of frames that holds offset off.
func frameOf(frames []segFrame, off int) segFrame {
	for _, f := range frames {
		if f.off <= off && off < f.end {
			return f
		}
	}
	return segFrame{kind: frameKind(255)}
}

// frameList encodes a segment's frames as FuzzLoadSegment's re-framing
// mode reads them: per frame, its kind, its payload's length (uint16) and
// its payload.
func frameList(data []byte, frames []segFrame) []byte {
	var list []byte
	for _, f := range frames {
		list = append(list, byte(f.kind))
		list = binary.LittleEndian.AppendUint16(list, uint16(f.end-f.body))
		list = append(list, data[f.body:f.end]...)
	}
	return list
}

// reframe builds a segment file from a frame list (frameList): the magic,
// each name and triple payload framed with its CRC, in the list's order,
// then the payload of the list's last frame of kind frameLast, cut or
// zero-padded to the last frame's size, as its last frame, and the trailer
// that places it. A payload runs to the list's end when its length claims
// more; a kind past frameLast is taken modulo three.
func reframe(list []byte) []byte {
	seg := []byte(segMagic)
	last := make([]byte, lastSize)
	for len(list) >= 3 {
		kind, n := frameKind(list[0]%3), int(binary.LittleEndian.Uint16(list[1:]))
		payload := list[3:min(len(list), 3+n)]
		list = list[3+len(payload):]
		if kind == frameLast {
			last = append(payload[:0:0], payload...)
			last = append(last, make([]byte, max(0, lastSize-len(last)))...)[:lastSize]
			continue
		}
		seg = appendFrame(seg, payload)
	}
	at := len(seg)
	seg = appendFrame(seg, last)
	return append(binary.LittleEndian.AppendUint64(seg, uint64(at)), segTrailer...)
}

// FuzzLoadSegment throws arbitrary bytes at the segment reader — the open
// (openSegment) and one cursor over the frames — through a buffer of the
// size the input picks (fuzzReadBuf): whatever the input, it must return
// cleanly — segments are published atomically, so the reader treats every
// violation as corruption, and none may panic or over-allocate past the bytes
// actually present. A segment read through without an error must hold what
// it claims: its name frames read back as its names, and its triples fold to
// exactly its totals, strictly ascending across adds and tombstones and
// within its id bound. In its re-framing mode the input is a list of
// (frame kind, payload) entries (frameList) that the target frames with
// valid CRCs (reframe), so a mutated payload gets past the checksums to the
// cursor's checks of order, id bound and totals; its seeds are the
// fixtures' frames.
func FuzzLoadSegment(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "segments", "*.seg"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no segment fixtures: %v", err)
	}
	seeds := [][]byte{{}, []byte("ONTOSEG1"), []byte("ONTOSEG2"), []byte("ONTOSEG3")}
	var lists [][]byte
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data, data[:len(data)-7])
		frames, err := segFrames(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		lists = append(lists, frameList(data, frames))
	}
	for _, seed := range seeds {
		for _, size := range fuzzSizes {
			f.Add(seed, size, false)
		}
	}
	for _, list := range lists {
		f.Add(list, fuzzSizes[0], true)
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16, framed bool) {
		if framed {
			data = reframe(data)
		}
		seg, err := openSegment(segmentName(1, 2), bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		fd := foldOf(seg)
		fd.readBuf = fuzzReadBuf(size)
		runs, err := fd.dictionary()
		if err != nil {
			return
		}
		var prev store.IDTriple
		adds, removes := 0, 0
		bound := seg.dictFirst + store.SymbolID(seg.dict.N)
		err = fd.each(func(tr store.IDTriple, add bool) bool {
			if tr.S >= bound || tr.P >= bound || tr.O >= bound {
				t.Fatalf("a segment read through references id beyond its %d-id prefix", bound)
			}
			if adds+removes > 0 && !prev.Less(tr) {
				t.Fatal("a segment read through is not strictly ascending")
			}
			if add {
				adds++
			} else {
				removes++
			}
			prev = tr
			return true
		})
		if err != nil {
			return
		}
		if names := dictNames(runs); len(names) != seg.dict.N {
			t.Fatalf("a segment read through holds %d names, its last frame claims %d", len(names), seg.dict.N)
		}
		if adds != seg.adds || removes != seg.removes {
			t.Fatalf("a segment read through folds to %d adds and %d tombstones, its last frame claims %d and %d", adds, removes, seg.adds, seg.removes)
		}
	})
}
