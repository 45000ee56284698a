package durable

import (
	"testing"

	"repro/internal/store"
)

// FuzzDecodeRecord throws arbitrary bytes at the record decoder: whatever
// the input, it must return cleanly — an error or a record, never a panic or
// a length-driven runaway allocation (the decoder bounds-checks every length
// against the bytes actually present).
func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeDict(nil, 1, 0, []string{"a", "bb", ""}))
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
			names := r.names.appendStrings(nil)
			r2, err := decodeRecord(encodeDict(nil, r.seq, r.first, names))
			if err != nil {
				t.Fatalf("re-encoded dict record does not decode: %v", err)
			}
			names2 := r2.names.appendStrings(nil)
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
		{
			start: 1, end: 2, dictFirst: 0,
			dict: namesOf("s", "p", "o"),
			adds: runOf(store.IDTriple{S: 0, P: 1, O: 2}),
		},
		{
			start: 3, end: 4, dictFirst: 3,
			dict:    namesOf("q"),
			adds:    runOf(store.IDTriple{S: 0, P: 1, O: 3}),
			removes: runOf(store.IDTriple{S: 0, P: 1, O: 2}),
		},
	}
	return segs, stampChain(segs)
}

// FuzzRecoverLog feeds arbitrary bytes to the whole recovery path — the only
// way the engine fills a store — as a log tail, once over a bare directory,
// once behind a two-segment tier chain: recovery must either succeed (torn
// tails are legal in the last file) or fail with an error — never panic, and
// never load a state the fold did not explicitly compose.
func FuzzRecoverLog(f *testing.F) {
	var bare logScript
	var seed []byte
	seed = appendFrame(seed, bare.dict(1, "s", "p", "o"))
	seed = appendFrame(seed, bare.write(2, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil))
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	// A tail that chains correctly onto the segment fixture (first seq 5,
	// re-adding the tombstoned triple), so the fuzzer explores the
	// chain-plus-valid-tail path too, not only early rejections.
	segs, chainScript := fuzzChainSegments()
	cs := chainScript.clone()
	var chained []byte
	chained = appendFrame(chained, cs.write(5, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil))
	chained = appendFrame(chained, cs.write(6, nil, []store.IDTriple{{S: 0, P: 1, O: 3}}))
	f.Add(chained)
	// The same two changes as one two-sided record, then a record that adds
	// and removes one triple, then an empty one; and the first as a chunked
	// write, its part and its last chunk.
	cs = chainScript.clone()
	var twoSided []byte
	twoSided = appendFrame(twoSided, cs.write(5, []store.IDTriple{{S: 0, P: 1, O: 2}}, []store.IDTriple{{S: 0, P: 1, O: 3}}))
	twoSided = appendFrame(twoSided, cs.write(6, []store.IDTriple{{S: 3, P: 1, O: 0}}, []store.IDTriple{{S: 3, P: 1, O: 0}}))
	twoSided = appendFrame(twoSided, cs.write(7, nil, nil))
	f.Add(twoSided)
	f.Add(twoSided[:len(twoSided)/2])
	cs = chainScript.clone()
	var chunked []byte
	chunked = appendFrame(chunked, cs.part(5, []store.IDTriple{{S: 0, P: 1, O: 2}}, nil))
	chunked = appendFrame(chunked, cs.write(6, nil, []store.IDTriple{{S: 0, P: 1, O: 3}}))
	f.Add(chunked)
	// A log the engine itself wrote — dictionary growth interleaved with add
	// batches, removes, two-sided transactions and a triple added and removed
	// by one record — cut on a commit boundary, inside a frame, and one byte
	// short of whole.
	built, offsets, _ := buildLog(f)
	f.Add(built[:offsets[4]])
	f.Add(built[:offsets[7]+11])
	f.Add(built[:len(built)-1])
	// Serialize the segment fixture once and lay its bytes down per exec.
	chainDisk := newMemDisk()
	for _, seg := range segs {
		if _, err := writeSegment(chainDisk, foldOf(seg), nil); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newMemDisk()
		d.put(walFileName(1), data)
		rec, err := recoverDir(store.New(), d)
		if err == nil {
			rec.file.Close()
		}

		// Same bytes as the tail of a segment-chain directory: the chain
		// covers seqs 1..4, so the tail file starts at 5 and the fuzzed data
		// must chain densely from there (or be refused).
		chain := chainDisk.clone()
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

// FuzzLoadSegment throws arbitrary bytes at the segment decoder: whatever the
// input, it must return cleanly — segments are published atomically, so the
// loader treats every violation as corruption, and none may panic or
// over-allocate past the bytes actually present.
func FuzzLoadSegment(f *testing.F) {
	d := newMemDisk()
	segs, _ := fuzzChainSegments()
	for _, seg := range segs {
		if _, err := writeSegment(d, foldOf(seg), nil); err != nil {
			f.Fatal(err)
		}
		data := d.get(segmentName(seg.start, seg.end))
		f.Add(data)
		f.Add(data[:len(data)-7])
	}
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := decodeSegment(segmentName(1, 2), data)
		if err != nil {
			return
		}
		// An accepted segment must satisfy the invariants every consumer
		// assumes: sorted runs within the dictionary bound.
		bound := seg.dictFirst + store.SymbolID(seg.dict.n)
		for _, run := range [][]store.IDTriple{seg.adds.triples(), seg.removes.triples()} {
			for i, tr := range run {
				if tr.S >= bound || tr.P >= bound || tr.O >= bound {
					t.Fatalf("accepted segment references id beyond its %d-id prefix", bound)
				}
				if i > 0 && !run[i-1].Less(tr) {
					t.Fatal("accepted segment has an unsorted run")
				}
			}
		}
	})
}
