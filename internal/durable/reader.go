package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/store"
)

// This file is how the package reads its files: through fixed buffers,
// never whole. A reader streams one stretch of a source — a file the disk
// opened, or a byte slice behind a bytes.Reader — in order through a buffer
// it reuses. The log's frames are taken whole from it (walkWAL), so its
// buffer grows to the largest frame; a segment's header, names and triples
// are copied out piece by piece, so a segment reader never grows at all.
// Every pass over a segment's regions after the verifying one re-checks what
// it reads against that pass (runCursor, region.check).

// readBufSize is the buffer a reader of a data-directory file starts with.
// A merge reads each input's two runs through one reader each, so its scratch
// is 2 × readBufSize an input — 16 KiB, 144 KiB at the most inputs a forced
// merge folds (maxSegments + 1).
const readBufSize = 8 << 10

// reader reads the bytes [pos, end) of src in order through buf: buf[r:w]
// holds the source's bytes from pos on. With sum set it keeps the CRC-32C of
// the bytes it has handed out since the caller last restarted it (part), and
// with whole set too, of all of them (body) — summed lazily: buf[s:r] is
// handed out but not yet summed.
type reader struct {
	src        io.ReaderAt
	pos, end   int64
	buf        []byte
	r, w, s    int
	sum, whole bool
	part       uint32
	body       uint32
	err        error // the read of the source that failed, if one did
}

// newReader returns a reader of src's bytes [off, end) through buf, which it
// outgrows only to hold a frame longer than buf (peek).
func newReader(src io.ReaderAt, off, end int64, buf []byte, sum bool) reader {
	return reader{src: src, pos: off, end: end, buf: buf, sum: sum}
}

// left is how many bytes of the stretch are not yet handed out.
func (rd *reader) left() int64 { return rd.end - rd.pos }

// flushSum sums the bytes handed out since the last flush.
func (rd *reader) flushSum() {
	if rd.sum && rd.s < rd.r {
		rd.part = crc32.Update(rd.part, castagnoli, rd.buf[rd.s:rd.r])
		if rd.whole {
			rd.body = crc32.Update(rd.body, castagnoli, rd.buf[rd.s:rd.r])
		}
	}
	rd.s = rd.r
}

// restart begins a new region: part sums from here on.
func (rd *reader) restart() {
	rd.flushSum()
	rd.part = 0
}

// sums returns part and body as of the bytes handed out so far.
func (rd *reader) sums() (part, body uint32) {
	rd.flushSum()
	return rd.part, rd.body
}

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
	rd.flushSum()
	if n > len(rd.buf) {
		grown := make([]byte, n)
		rd.w = copy(grown, rd.buf[rd.r:rd.w])
		rd.buf = grown
	} else {
		rd.w = copy(rd.buf, rd.buf[rd.r:rd.w])
	}
	rd.r, rd.s = 0, 0
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

// consume hands out the next n buffered bytes.
func (rd *reader) consume(n int) []byte {
	b := rd.buf[rd.r : rd.r+n]
	rd.r += n
	rd.pos += int64(n)
	return b
}

// peek returns the next n bytes without handing them out, valid until the
// next call; buf grows to n if it is shorter.
func (rd *reader) peek(n int) ([]byte, error) {
	if err := rd.fill(n); err != nil {
		return nil, err
	}
	return rd.buf[rd.r : rd.r+n], nil
}

// chunk hands out the next buffered bytes, at most max, reading more when
// none are buffered.
func (rd *reader) chunk(max int64) ([]byte, error) {
	if rd.r == rd.w {
		if err := rd.fill(1); err != nil {
			return nil, err
		}
	}
	return rd.consume(int(min(max, int64(rd.w-rd.r)))), nil
}

// readFull copies the next len(dst) bytes into dst, across as many fills as
// it takes.
func (rd *reader) readFull(dst []byte) error {
	for len(dst) > 0 {
		b, err := rd.chunk(int64(len(dst)))
		if err != nil {
			return err
		}
		dst = dst[copy(dst, b):]
	}
	return nil
}

// skip hands out the next n bytes unseen — summed, when sum is set.
func (rd *reader) skip(n int64) error {
	for n > 0 {
		b, err := rd.chunk(n)
		if err != nil {
			return err
		}
		n -= int64(len(b))
	}
	return nil
}

// triple reads the next 12 bytes as an (s, p, o) triple.
func (rd *reader) triple() (store.IDTriple, error) {
	if rd.w-rd.r >= 12 {
		return decodeTriple(rd.consume(12)), nil
	}
	var b [12]byte
	err := rd.readFull(b[:])
	return decodeTriple(b[:]), err
}

// uvarint reads one uvarint as binary.Uvarint decodes it; ok is false where
// Uvarint reports no value — the stretch ends inside it, or it overflows 64
// bits.
func (rd *reader) uvarint() (x uint64, ok bool, err error) {
	if b := rd.buf[rd.r:rd.w]; len(b) >= binary.MaxVarintLen64 || int64(len(b)) == rd.left() {
		x, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, false, nil
		}
		rd.consume(w)
		return x, true, nil
	}
	var b [1]byte
	for i, shift := 0, uint(0); i < binary.MaxVarintLen64; i, shift = i+1, shift+7 {
		if rd.left() == 0 {
			return 0, false, nil
		}
		if err := rd.readFull(b[:]); err != nil {
			return 0, false, err
		}
		if b[0] < 0x80 {
			if i == binary.MaxVarintLen64-1 && b[0] > 1 {
				return 0, false, nil
			}
			return x | uint64(b[0])<<shift, true, nil
		}
		x |= uint64(b[0]&0x7f) << shift
	}
	return 0, false, nil
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
		rd.consume(len(b))
	}
	return payload, ok, nil
}

// region is one part of a patch where it lies — a dictionary window of n
// names, or a triple run of n triples: size bytes at off in src — and, in a
// segment file, the CRC-32C its verifying pass found of those bytes. A
// region's bytes are read only through a reader; in a segment file, every
// later read of them to their end is checked against crc.
type region struct {
	src       io.ReaderAt
	off, size int64
	n         int
	crc       uint32
}

// memRegion is the region of n names or triples held in b, which no pass
// checks.
func memRegion(b []byte, n int) region {
	return region{src: bytes.NewReader(b), size: int64(len(b)), n: n}
}

// reader returns a reader of the region through buf, summing what it reads.
func (g region) reader(buf []byte) reader {
	return newReader(g.src, g.off, g.off+g.size, buf, true)
}

// check holds the bytes rd has read of the region, all of them, to the
// region's CRC.
func (g region) check(rd *reader, file, what string) error {
	if part, _ := rd.sums(); part != g.crc {
		return fmt.Errorf("durable: segment %s: its %s changed after it was verified", file, what)
	}
	return nil
}

// runCursor walks one triple run of a patch through rd. With hold set it
// holds every triple to the run's id bound and strict order — the checks
// the verifying pass makes, in its words — and with check set too, the run
// read to its end to the CRC that pass recorded: every pass over a segment
// file's runs sets both, the verifying pass hold alone, and a pass over a
// folded log window, which never left memory, neither. head is the last
// triple read.
type runCursor struct {
	rd          *reader
	run         region
	file        string
	what        string // "add" or "remove"
	bound       store.SymbolID
	hold, check bool
	i           int
	head        store.IDTriple
	add         bool
}

// next reads the run's next triple into head; ok is false once the run is
// done.
func (c *runCursor) next() (ok bool, err error) {
	if c.i == c.run.n {
		return false, nil
	}
	t, err := c.rd.triple()
	if err != nil {
		return false, fmt.Errorf("durable: reading segment %s: %w", c.file, err)
	}
	if c.hold {
		if t.S >= c.bound || t.P >= c.bound || t.O >= c.bound {
			return false, fmt.Errorf("durable: segment %s: %s triple %d references id beyond the %d-id dictionary prefix", c.file, c.what, c.i, c.bound)
		}
		if c.i > 0 && !c.head.Less(t) {
			return false, fmt.Errorf("durable: segment %s: %s run not strictly sorted at triple %d", c.file, c.what, c.i)
		}
	}
	c.head = t
	if c.i++; c.i == c.run.n && c.check {
		return true, c.run.check(c.rd, c.file, c.what+" run")
	}
	return true, nil
}
