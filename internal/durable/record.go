package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/store"
)

// This file is the log's wire format: length-prefixed, CRC-framed records,
// each carrying a sequence number and a dictionary-id-level payload. The
// format is append-only and self-delimiting, so a reader can walk a file
// frame by frame and stop at the first frame the CRC rejects — which is
// exactly how torn tails are detected after a crash.
//
// Frame layout (all integers little-endian):
//
//	+------------+------------+====================+
//	| len uint32 | crc uint32 | payload (len bytes)|
//	+------------+------------+====================+
//
// crc is CRC-32C (Castagnoli) over the payload only, so a frame is valid iff
// its length field delimits a payload whose checksum matches — a truncated
// write, a bit flip in the payload, and a bit flip in the length field are
// all rejected (the last because the misdelimited span checksums wrong).
//
// Payload layout:
//
//	+----------+------------+======+
//	| typ byte | seq uint64 | body |
//	+----------+------------+======+
//
// seq numbers records 1, 2, 3… across the log's whole life (files included),
// so the fold can verify continuity and a checkpoint can name the exact record
// its segment covers through. The three record types:
//
//	recDict  body = first uint32, count uint32, count × (uvarint n, n bytes)
//	         — names[i] was interned as dictionary id first+i
//	recWrite body = gen uint64, digest 2 × uint64, nAdds uint32,
//	         nRemoves uint32, (nAdds + nRemoves) × (s, p, o uint32)
//	         — one committed write section: the triples it actually
//	         inserted, then the triples it actually deleted, folded in that
//	         order, so a triple in both runs ends absent; and the
//	         store.Position the section left, the name a replica and
//	         recovery check the state by
//	recPart  body = nAdds uint32, nRemoves uint32, triples as recWrite's
//	         — a leading chunk of a write too large for one frame; the write
//	         is the run of parts and the recWrite closing it, and counts only
//	         once that last chunk is on disk
//
// The log is also the replication feed: GET /repl/deltas serves these frames
// as they lie on disk (serve.go).

// Record type tags. 2 and 3 were the one-sided add and remove records of
// early logs, 4 the position-less mutation record of builds before
// positions; a log holding one is refused, not misread.
const (
	recDict  = 1
	recPart  = 5
	recWrite = 6
)

// frameHeader is the fixed prefix of every frame: length + CRC.
const frameHeader = 8

// maxFramePayload caps a single frame, and is enforced on BOTH sides of the
// format: the writer chunks any mutation whose record would exceed it into
// consecutive smaller records (see walWriter.appendMutation/appendDict), so the
// reader may treat a frame claiming more than the cap as corruption rather
// than trust it to allocate. A typical payload — a 100k-triple server batch
// (~1.2 MB) or its dictionary growth — sits far below it.
const maxFramePayload = 1 << 26

// Fixed payload-prefix sizes, which the writer subtracts from maxFramePayload
// when deciding where to chunk an oversized mutation.
const (
	// recHeader is the typ byte plus the seq uint64 every record carries.
	recHeader = 9
	// mutationPayloadHeader is recHeader plus recWrite's position and two
	// count uint32s; a recPart's is smaller, and chunks are cut to this one.
	mutationPayloadHeader = recHeader + 24 + 8
	// dictPayloadHeader is recHeader plus recDict's first and count uint32s.
	dictPayloadHeader = recHeader + 8
)

// castagnoli is the CRC-32C table shared by framing and segment footers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame wraps payload in a frame and appends it to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// nextFrame delimits the frame starting at data[off:], returning its payload
// and the offset of the following frame. ok is false when the bytes at off do
// not form a whole, checksum-valid frame of a payload the writer could have
// framed — the torn-tail condition; the caller decides whether that means
// "clean end" (off == len(data)) or corruption worth reporting. A payload
// shorter than a record header is refused here: eight zero bytes frame an
// empty payload whose CRC-32C is 0, and they are what a crash leaves when a
// file's size reached the disk without its data.
func nextFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off < 0 || len(data)-off < frameHeader {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n < recHeader || n > maxFramePayload || len(data)-off-frameHeader < n {
		return nil, off, false
	}
	crc := binary.LittleEndian.Uint32(data[off+4:])
	payload = data[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, off, false
	}
	return payload, off + frameHeader + n, true
}

// record is one decoded WAL record. Its byte fields alias the payload it was
// decoded from: a fold consumes a record where it lies, copying nothing.
type record struct {
	typ byte
	seq uint64
	// first and names carry a recDict body.
	first store.SymbolID
	names nameRun
	// nAdds and triples carry a recPart or recWrite body: its checked
	// triples, the adds before the removes, so triple i < nAdds is an add.
	nAdds   int
	triples tripleRun
	// at is a recWrite's position.
	at store.Position
}

// appendTriple appends the 12 bytes of one (s, p, o) triple to dst.
func appendTriple(dst []byte, t store.IDTriple) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, t.S)
	dst = binary.LittleEndian.AppendUint32(dst, t.P)
	return binary.LittleEndian.AppendUint32(dst, t.O)
}

// decodeTriple reads one (s, p, o) triple from the first 12 bytes of b.
func decodeTriple(b []byte) store.IDTriple {
	return store.IDTriple{
		S: binary.LittleEndian.Uint32(b),
		P: binary.LittleEndian.Uint32(b[4:]),
		O: binary.LittleEndian.Uint32(b[8:]),
	}
}

// nameRun is a run of dictionary names in encoded form: n names, each a
// uvarint length and its bytes — the region a recDict body and a segment's
// dictionary share byte for byte. Checkpoints and merges move names only as
// these regions and never decode one; recovery alone turns the regions it
// folded into strings.
type nameRun struct {
	n   int
	enc []byte
}

// scanNames finds where a region of count encoded names at the front of b
// ends. It returns the region's length and how many whole names lie within
// b; fewer than count means name number whole overruns b.
func scanNames(b []byte, count int) (size, whole int) {
	for whole < count {
		n, w := binary.Uvarint(b[size:])
		if w <= 0 || n > uint64(len(b)-size-w) {
			break
		}
		size += w + int(n)
		whole++
	}
	return size, whole
}

// appendStrings decodes a checked run, appending one string per name to
// names. Every name is sliced from one string holding the whole region:
// converting per name would allocate one heap object per name — for a
// million-name store a million tiny objects the GC re-scans on every cycle
// for the life of the store; one backing string a region is a handful of
// objects (the varint bytes ride along unreferenced, a few bytes per name of
// slack).
func (a nameRun) appendStrings(names []string) []string {
	blob := string(a.enc)
	for off := 0; off < len(blob); {
		n, w := binary.Uvarint(a.enc[off:])
		names = append(names, blob[off+w:off+w+int(n)])
		off += w + int(n)
	}
	return names
}

// encodeDict appends a recDict payload to dst.
func encodeDict(dst []byte, seq uint64, first store.SymbolID, names []string) []byte {
	dst = append(dst, recDict)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, first)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	for _, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// dictNameSize is the encoded size of one recDict name: its uvarint length
// prefix plus its bytes. The writer sums it to chunk dictionary growth below
// the frame cap.
func dictNameSize(name string) int {
	n := 1
	for x := uint64(len(name)); x >= 0x80; x >>= 7 {
		n++
	}
	return n + len(name)
}

// encodeMutation appends the payload of one chunk of a write to dst: a
// recWrite stamped at when last, else a recPart.
func encodeMutation(dst []byte, seq uint64, adds, removes []store.IDTriple, at store.Position, last bool) []byte {
	if last {
		dst = append(dst, recWrite)
		dst = binary.LittleEndian.AppendUint64(dst, seq)
		dst = binary.LittleEndian.AppendUint64(dst, at.Gen)
		dst = binary.LittleEndian.AppendUint64(dst, at.Digest[0])
		dst = binary.LittleEndian.AppendUint64(dst, at.Digest[1])
	} else {
		dst = append(dst, recPart)
		dst = binary.LittleEndian.AppendUint64(dst, seq)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(adds)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(removes)))
	for _, side := range [2][]store.IDTriple{adds, removes} {
		for _, t := range side {
			dst = appendTriple(dst, t)
		}
	}
	return dst
}

// decodeRecord parses one frame payload. Every length is bounds-checked
// against the remaining bytes before it is trusted, so a corrupt payload that
// slipped past the CRC (or a fuzzer's invention) yields an error, never a
// panic or an oversized allocation.
func decodeRecord(payload []byte) (record, error) {
	var r record
	if len(payload) < recHeader {
		return r, fmt.Errorf("durable: record payload of %d bytes is shorter than its type+seq header", len(payload))
	}
	r.typ = payload[0]
	r.seq = binary.LittleEndian.Uint64(payload[1:])
	body := payload[recHeader:]
	switch r.typ {
	case recDict:
		if len(body) < 8 {
			return r, fmt.Errorf("durable: dict record body of %d bytes is shorter than its first+count header", len(body))
		}
		r.first = binary.LittleEndian.Uint32(body)
		count := int(binary.LittleEndian.Uint32(body[4:]))
		body = body[8:]
		if count > len(body) { // every name costs ≥1 length byte
			return r, fmt.Errorf("durable: dict record claims %d names in %d bytes", count, len(body))
		}
		size, whole := scanNames(body, count)
		if whole < count {
			return r, fmt.Errorf("durable: dict record name %d overruns the body", whole)
		}
		if size != len(body) {
			return r, fmt.Errorf("durable: dict record has %d trailing bytes", len(body)-size)
		}
		r.names = nameRun{n: count, enc: body}
	case recPart, recWrite:
		if r.typ == recWrite {
			if len(body) < 24 {
				return r, fmt.Errorf("durable: write record body of %d bytes is shorter than its position", len(body))
			}
			r.at = store.Position{Gen: binary.LittleEndian.Uint64(body), Digest: store.Digest{binary.LittleEndian.Uint64(body[8:]), binary.LittleEndian.Uint64(body[16:])}}
			body = body[24:]
		}
		if len(body) < 8 {
			return r, fmt.Errorf("durable: mutation record body of %d bytes is shorter than its two count headers", len(body))
		}
		nAdds := uint64(binary.LittleEndian.Uint32(body))
		nRemoves := uint64(binary.LittleEndian.Uint32(body[4:]))
		body = body[8:]
		if uint64(len(body)) != 12*(nAdds+nRemoves) {
			return r, fmt.Errorf("durable: mutation record claims %d adds and %d removes but carries %d bytes", nAdds, nRemoves, len(body))
		}
		r.nAdds, r.triples = int(nAdds), body
	case 2, 3, 4:
		return r, fmt.Errorf("durable: record type %d was written by an older build of this engine, which this build does not read", r.typ)
	default:
		return r, fmt.Errorf("durable: unknown record type %d", r.typ)
	}
	return r, nil
}
