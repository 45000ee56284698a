package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
)

// This file is how the package reads its files: through fixed buffers,
// never whole. A reader streams one stretch of a source — a file the disk
// opened, or a byte slice behind a bytes.Reader — in order through a buffer
// it reuses, and hands it out frame by frame (reader.frame), each frame's
// CRC-32C checked before any of it is handed out: the log's records to
// walkWAL, a segment's names and triples to its cursor. Its buffer grows only
// to hold a frame longer than it; a segment's frames fit one readBufSize
// buffer unless a single name does not.

// readBufSize is the buffer a reader of a data-directory file starts with,
// and the most a segment writer puts in one frame. A merge reads each input
// through one cursor, so its scratch is readBufSize an input — 72 KiB at the
// most inputs a forced merge folds (maxSegments + 1).
const readBufSize = 8 << 10

// reader reads the bytes [pos, end) of src in order through buf: buf[r:w]
// holds the source's bytes from pos on.
type reader struct {
	src      io.ReaderAt
	pos, end int64
	buf      []byte
	r, w     int
	err      error // the read of the source that failed, if one did
}

// newReader returns a reader of src's bytes [off, end) through buf, which it
// outgrows only to hold a frame longer than buf (peek).
func newReader(src io.ReaderAt, off, end int64, buf []byte) reader {
	return reader{src: src, pos: off, end: end, buf: buf}
}

// left is how many bytes of the stretch are not yet handed out.
func (rd *reader) left() int64 { return rd.end - rd.pos }

// fill makes at least n bytes buffered, n at most left: it moves the
// buffered bytes to the front, grows buf when it is shorter than n, and reads
// as much of the stretch as the buffer holds.
func (rd *reader) fill(n int) error {
	if rd.w-rd.r >= n {
		return nil
	}
	if int64(n) > rd.left() {
		return io.ErrUnexpectedEOF
	}
	if n > len(rd.buf) {
		grown := make([]byte, n)
		rd.w = copy(grown, rd.buf[rd.r:rd.w])
		rd.buf = grown
	} else {
		rd.w = copy(rd.buf, rd.buf[rd.r:rd.w])
	}
	rd.r = 0
	at := rd.pos + int64(rd.w)
	want := int(min(int64(len(rd.buf)-rd.w), rd.end-at))
	if err := readAt(rd.src, rd.buf[rd.w:rd.w+want], at); err != nil {
		rd.err = err
		return err
	}
	rd.w += want
	return nil
}

// readAt fills p with src's bytes from off on.
func readAt(src io.ReaderAt, p []byte, off int64) error {
	k, err := src.ReadAt(p, off)
	if k == len(p) {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// peek returns the next n bytes without handing them out, valid until the
// next call; buf grows to n if it is shorter.
func (rd *reader) peek(n int) ([]byte, error) {
	if err := rd.fill(n); err != nil {
		return nil, err
	}
	return rd.buf[rd.r : rd.r+n], nil
}

// frame delimits the frame at the reader's position as nextFrame does,
// against the bytes left in the stretch, and hands it out: its payload,
// valid until the next call. ok is false, with nothing handed out, when the
// bytes there are no whole, checksum-valid frame.
func (rd *reader) frame() (payload []byte, ok bool, err error) {
	left := rd.left()
	if left < frameHeader {
		return nil, false, nil
	}
	h, err := rd.peek(frameHeader)
	if err != nil {
		return nil, false, err
	}
	n := int64(binary.LittleEndian.Uint32(h))
	if n < recHeader || n > maxFramePayload || left-frameHeader < n {
		return nil, false, nil
	}
	b, err := rd.peek(frameHeader + int(n))
	if err != nil {
		return nil, false, err
	}
	if payload, _, ok = nextFrame(b, 0); ok {
		rd.r += len(b)
		rd.pos += int64(len(b))
	}
	return payload, ok, nil
}

// Where a cursor stands in its patch.
const (
	atStart  = iota // before its names
	atNamed         // past its names, before its triples
	atTriple        // among its triples
)

// cursor reads one patch of a fold in order, once: its names (readNames),
// then its triples one at a time (next), as the one ascending stream the patch
// holds — a log window's events, or a segment's frames, read through rd. A
// segment's stream is held, as it is read, to strict order and to the id
// bound of the names the chain holds through it — the checks a segment's
// load has always made, in their words — and its frames to the totals its
// last frame claims: where they are reached, nothing but the last frame may
// follow, read again and the same as at the open. head is the triple read
// last, add whether it is an add.
type cursor struct {
	p             segmentData
	rd            reader
	at            int        // atStart, atNamed or atTriple
	names         int        // names read
	na, nr        int        // adds and tombstones read
	adds, removes tripleRun  // the current triple frame's unread adds and tombstones
	events        []walEvent // a log window's unread events
	head          store.IDTriple
	add           bool
}

// reset sets the cursor to read p from its start, through its buffer — a
// new one of size bytes, the first time it reads a file.
func (c *cursor) reset(p segmentData, size int) {
	buf := c.rd.buf
	*c = cursor{p: p, events: p.events}
	if p.src != nil {
		if buf == nil {
			buf = make([]byte, size)
		}
		c.rd = newReader(p.src, int64(len(segMagic)), p.size-tailSize, buf)
	}
	c.rd.buf = buf
}

// frame hands out the payload of the segment's next frame, its CRC checked,
// valid until the next call.
func (c *cursor) frame() ([]byte, error) {
	off := c.rd.pos
	if c.rd.left() == 0 {
		return nil, c.disagree("fewer")
	}
	payload, ok, err := c.rd.frame()
	if err != nil {
		return nil, fmt.Errorf("durable: reading segment %s: %w", c.p.file, err)
	}
	if !ok {
		return nil, fmt.Errorf("durable: segment %s fails its checksum at offset %d", c.p.file, off)
	}
	return payload, nil
}

// disagree is the refusal of a segment whose frames hold fewer or more than
// its last frame claims.
func (c *cursor) disagree(than string) error {
	return fmt.Errorf("durable: segment %s: its frames hold %s than the %d names, %d adds and %d tombstones its last frame claims",
		c.p.file, than, c.p.dict.N, c.p.adds, c.p.removes)
}

// readNames reads the patch's names, handing them to yield, when it is not
// nil, a run at a time — a segment's a frame at a time, valid until yield
// returns.
func (c *cursor) readNames(yield func(store.NameRun) error) error {
	if c.p.src == nil {
		c.at = atNamed
		if yield == nil || c.p.dict.N == 0 {
			return nil
		}
		return yield(c.p.dict)
	}
	for c.names < c.p.dict.N {
		payload, err := c.frame()
		if err != nil {
			return err
		}
		first, run, err := decodeNames(payload)
		if err != nil {
			return fmt.Errorf("durable: segment %s: %w", c.p.file, err)
		}
		if want := c.p.dictFirst + store.SymbolID(c.names); first != want {
			return fmt.Errorf("durable: segment %s: a name frame starts at id %d, want %d", c.p.file, first, want)
		}
		if run.N > c.p.dict.N-c.names {
			return c.disagree("more")
		}
		c.names += run.N
		if yield != nil {
			if err := yield(run); err != nil {
				return err
			}
		}
	}
	c.at = atNamed
	return nil
}

// next reads the patch's next triple into head; ok is false once its
// triples are done — for a segment, once its end checks hold.
func (c *cursor) next() (ok bool, err error) {
	c.at = atTriple
	if c.p.src == nil {
		if len(c.events) == 0 {
			return false, nil
		}
		c.head, c.add = c.events[0].t, c.events[0].key&1 != 0
		c.events = c.events[1:]
		return true, nil
	}
	for len(c.adds)+len(c.removes) == 0 {
		if c.na == c.p.adds && c.nr == c.p.removes {
			return false, c.end()
		}
		payload, err := c.frame()
		if err != nil {
			return false, err
		}
		nAdds, run, err := decodeTriples(payload)
		if err != nil {
			return false, fmt.Errorf("durable: segment %s: %w", c.p.file, err)
		}
		if nAdds > c.p.adds-c.na || run.len()-nAdds > c.p.removes-c.nr {
			return false, c.disagree("more")
		}
		c.adds, c.removes = run[:12*nAdds], run[12*nAdds:]
	}
	var t store.IDTriple
	what, i := "add", c.na
	if c.add = len(c.removes) == 0 || len(c.adds) > 0 && c.adds.at(0).Less(c.removes.at(0)); c.add {
		t, c.adds = c.adds.at(0), c.adds[12:]
		c.na++
	} else {
		t, c.removes = c.removes.at(0), c.removes[12:]
		what, i = "remove", c.nr
		c.nr++
	}
	if bound := c.p.dictFirst + store.SymbolID(c.p.dict.N); t.S >= bound || t.P >= bound || t.O >= bound {
		return false, fmt.Errorf("durable: segment %s: %s triple %d references id beyond the %d-id dictionary prefix", c.p.file, what, i, bound)
	}
	if c.na+c.nr > 1 && !c.head.Less(t) {
		return false, fmt.Errorf("durable: segment %s: %s run not strictly sorted at triple %d", c.p.file, what, i)
	}
	c.head = t
	return true, nil
}

// end holds a segment whose totals its frames have reached to what follows
// them: nothing before its last frame, which must be the one its open read.
func (c *cursor) end() error {
	if c.rd.left() != 0 {
		return c.disagree("more")
	}
	c.rd.end += frameHeader + lastSize
	payload, err := c.frame()
	if err != nil {
		return err
	}
	var want [lastSize]byte
	if !bytes.Equal(payload, c.p.appendLast(want[:0])) {
		return fmt.Errorf("durable: segment %s: its last frame changed after it was opened", c.p.file)
	}
	return nil
}
