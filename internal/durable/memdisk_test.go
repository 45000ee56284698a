package durable

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/store"
)

// memDisk is the disk every test that builds, damages or inspects a data
// directory runs the engine on: an in-memory directory that knows what was
// synced. Every operation is recorded in an op log and first offered to
// inject, which may fail it or park the caller. inject sees the operation's
// name — mkdir, list, read, create, append, rename, remove, truncate,
// syncdir, write, sync, close — and the file it names ("." or ".." for
// syncdir, "" for mkdir and list, the source for rename); a nil error lets the
// operation run, any other is returned in its place, except that
// io.ErrShortWrite on a write applies the first half of the bytes before
// failing.
//
// The crash model (DESIGN.md "The disk seam"): a directory entry maps a name
// to an inode, and each inode keeps the bytes its last Sync made durable
// apart from the bytes reads see, with the writes and truncates issued since.
// syncDir(".") makes the current entries durable, syncDir("..") the
// directory's own entry in its parent; the entry changes since the last
// syncDir(".") are kept in order. crashImages enumerates what a crash may
// leave from that. The zero memDisk is a data directory that does not exist
// yet.
type memDisk struct {
	mu     sync.Mutex
	inject func(op, name string) error
	ops    []string // "op name", in issue order

	// bufSize is the buffer the readers of the disk's files start with
	// (readBuf); readBufSize if zero.
	bufSize int
	// read counts the bytes the reads of each file have returned.
	read map[string]int64

	exists, durable bool              // the directory, and its entry in the parent
	entries         map[string]*inode // what list and the opens see
	synced          map[string]*inode // the entries as of the last syncDir(".")
	dirOps          []dirOp           // entry changes since then, in order
}

// inode is one file's content.
type inode struct {
	data    []byte   // what reads see
	synced  []byte   // as of the last Sync
	pending []fileOp // writes and truncates since then, in order
}

// fileOp is one un-synced change to an inode: data written at off, or, with
// truncate set, the size set to off.
type fileOp struct {
	off      int
	data     []byte
	truncate bool
}

// dirOp is one un-synced entry change: name set to ino (a create, or with
// from set a rename from it), or removed when ino is nil.
type dirOp struct {
	name, from string
	ino        *inode
}

// sectorSize is the unit a torn write is cut at, besides its own start.
const sectorSize = 512

// newMemDisk returns an empty data directory that exists and is durable.
func newMemDisk() *memDisk {
	return &memDisk{exists: true, durable: true, entries: map[string]*inode{}, synced: map[string]*inode{}}
}

// setInject replaces the disk's inject hook; nil lets every operation run.
func (d *memDisk) setInject(inject func(op, name string) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inject = inject
}

// do records one operation and asks inject about it.
func (d *memDisk) do(op, name string) error {
	d.mu.Lock()
	d.ops = append(d.ops, op+" "+name)
	inject := d.inject
	d.mu.Unlock()
	if inject == nil {
		return nil
	}
	return inject(op, name)
}

// log returns the operations issued so far.
func (d *memDisk) log() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.ops)
}

// names returns the visible file names, sorted, without recording a list.
func (d *memDisk) names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.namesLocked()
}

func (d *memDisk) namesLocked() []string {
	names := make([]string, 0, len(d.entries))
	for name := range d.entries {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// get returns a copy of the visible bytes of name, nil if it is absent,
// without recording a read.
func (d *memDisk) get(name string) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := d.entries[name]; n != nil {
		return slices.Clone(n.data)
	}
	return nil
}

// put makes name hold data, durably: how a test lays down or damages a file
// of an image. The directory must exist.
func (d *memDisk) put(name string, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := &inode{data: slices.Clone(data), synced: slices.Clone(data)}
	d.entries[name], d.synced[name] = n, n
}

// notExist is the error an operation on a missing file or directory returns.
func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// lookupLocked returns the inode name is an entry for.
func (d *memDisk) lookupLocked(op, name string) (*inode, error) {
	if n := d.entries[name]; n != nil {
		return n, nil
	}
	return nil, notExist(op, name)
}

// dirOpLocked applies one entry change and keeps it un-synced.
func (d *memDisk) dirOpLocked(op dirOp) {
	op.applyTo(d.entries)
	d.dirOps = append(d.dirOps, op)
}

// applyTo performs the entry change on entries.
func (op dirOp) applyTo(entries map[string]*inode) {
	delete(entries, op.from)
	delete(entries, op.name)
	if op.ino != nil {
		entries[op.name] = op.ino
	}
}

func (d *memDisk) mkdir() error {
	if err := d.do("mkdir", ""); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.exists {
		d.exists, d.entries, d.synced = true, map[string]*inode{}, map[string]*inode{}
	}
	return nil
}

func (d *memDisk) list() ([]string, error) {
	if err := d.do("list", ""); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.exists {
		return nil, notExist("open", ".")
	}
	return d.namesLocked(), nil
}

func (d *memDisk) open(name string) (source, error) {
	if err := d.do("read", name); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.lookupLocked("open", name)
	if err != nil {
		return nil, err
	}
	return &memSource{d: d, ino: n, name: name, size: int64(len(n.data))}, nil
}

func (d *memDisk) readBuf() int { return cmp.Or(d.bufSize, readBufSize) }

// memSource is a file of a memDisk open for reading. Its reads see the
// file's bytes as they are at the read, and each is an operation of its
// own, "read", which inject may fail; the disk counts the bytes each
// returns (readOf).
type memSource struct {
	d    *memDisk
	ino  *inode
	name string
	size int64
}

func (s *memSource) ReadAt(p []byte, off int64) (int, error) {
	if err := s.d.do("read", s.name); err != nil {
		return 0, err
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	if off >= int64(len(s.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, s.ino.data[off:])
	if s.d.read == nil {
		s.d.read = map[string]int64{}
	}
	s.d.read[s.name] += int64(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (s *memSource) Size() int64 { return s.size }

func (s *memSource) Close() error { return nil }

// readOf returns how many bytes the reads of name have returned since the
// last resetReads.
func (d *memDisk) readOf(name string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.read[name]
}

// resetReads sets every file's count of bytes read to zero.
func (d *memDisk) resetReads() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.read = nil
}

// flip inverts the low bit of the byte at off of name's content, in place —
// under any reader that has it open — without recording an operation.
func (d *memDisk) flip(name string, off int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries[name].data[off] ^= 1
}

// readAll reads name whole through the disk's read door.
func readAll(d disk, name string) ([]byte, error) {
	src, err := d.open(name)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	b := make([]byte, src.Size())
	return b, readAt(src, b, 0)
}

func (d *memDisk) create(name string) (file, error) {
	if err := d.do("create", name); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.exists {
		return nil, notExist("open", name)
	}
	n := d.entries[name]
	if n == nil {
		n = &inode{}
		d.dirOpLocked(dirOp{name: name, ino: n})
	} else {
		n.apply(fileOp{truncate: true})
	}
	return &memFile{d: d, ino: n, name: name}, nil
}

func (d *memDisk) openAppend(name string) (file, error) {
	if err := d.do("append", name); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.lookupLocked("open", name)
	if err != nil {
		return nil, err
	}
	return &memFile{d: d, ino: n, name: name, append: true}, nil
}

func (d *memDisk) rename(from, to string) error {
	if err := d.do("rename", from); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.lookupLocked("rename", from)
	if err == nil {
		d.dirOpLocked(dirOp{name: to, from: from, ino: n})
	}
	return err
}

func (d *memDisk) remove(name string) error {
	if err := d.do("remove", name); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.lookupLocked("remove", name)
	if err == nil {
		d.dirOpLocked(dirOp{name: name})
	}
	return err
}

func (d *memDisk) truncate(name string, size int64) error {
	if err := d.do("truncate", name); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.lookupLocked("truncate", name)
	if err == nil {
		n.apply(fileOp{off: int(size), truncate: true})
	}
	return err
}

func (d *memDisk) syncDir(name string) error {
	if err := d.do("syncdir", name); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case name == "..":
		d.durable = d.exists
	case !d.exists:
		return notExist("open", name)
	default:
		d.synced, d.dirOps = maps.Clone(d.entries), nil
	}
	return nil
}

// apply performs op on the bytes reads see and keeps it un-synced.
func (n *inode) apply(op fileOp) {
	n.data = op.applyTo(n.data)
	n.pending = append(n.pending, op)
}

// applyTo returns b with op applied; it may reuse b.
func (op fileOp) applyTo(b []byte) []byte {
	end := op.off + len(op.data)
	switch {
	case op.truncate && op.off <= len(b):
		return b[:op.off]
	case op.truncate:
		return append(b, make([]byte, op.off-len(b))...)
	case end > len(b):
		b = append(b, make([]byte, end-len(b))...)
	}
	copy(b[op.off:], op.data)
	return b
}

// states returns every content a crash may leave the inode with, the
// current content last: the synced bytes with any prefix of the pending
// operations applied, the last kept write cut at its start or at a sector
// boundary inside it, leaving either the shorter size or the full size with
// the rest read as zeros (the size reached the disk, the data did not).
func (n *inode) states() [][]byte {
	b := slices.Clone(n.synced)
	out := [][]byte{slices.Clone(b)}
	for _, op := range n.pending {
		end := op.off + len(op.data)
		for cut := op.off; !op.truncate && cut < end; cut = (cut/sectorSize + 1) * sectorSize {
			torn := fileOp{off: op.off, data: op.data[:cut-op.off]}
			if cut > op.off {
				out = append(out, torn.applyTo(slices.Clone(b)))
			}
			if end > max(len(b), cut) {
				zeros := torn.applyTo(slices.Clone(b))
				out = append(out, append(zeros, make([]byte, end-len(zeros))...))
			}
		}
		b = op.applyTo(b)
		out = append(out, slices.Clone(b))
	}
	return out
}

// clone returns a disk holding the visible state, all of it durable: the
// directory a process restart finds.
func (d *memDisk) clone() *memDisk {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := &memDisk{bufSize: d.bufSize}
	if d.exists {
		img = newMemDisk()
		img.bufSize = d.bufSize
		for name, n := range d.entries {
			img.put(name, n.data)
		}
	}
	return img
}

// crashImage is one directory a crash may leave, before its files are
// chosen: the entries a prefix of the un-synced entry changes gives, and the
// states each of those files may be in. A nil crashImage is the directory
// gone.
type crashImage struct {
	names  []string
	states [][][]byte // per name, as inode.states returns them
}

// count is how many disks the image stands for, capped at 2⁴⁰.
func (c *crashImage) count() int {
	n := 1
	if c == nil {
		return n
	}
	for _, s := range c.states {
		n = min(n*len(s), 1<<40)
	}
	return n
}

// disk builds the image with pick(i) choosing the state of names[i].
func (c *crashImage) disk(pick func(i int) int) *memDisk {
	if c == nil {
		return &memDisk{}
	}
	img := newMemDisk()
	for i, name := range c.names {
		img.put(name, c.states[i][pick(i)])
	}
	return img
}

// crashImages returns the disks a crash at this instant may leave — every
// one while there are at most limit, else the one a process kill leaves
// (every written byte kept) and limit-1 more drawn with rng — and how many
// there are. The directory keeps any prefix of its un-synced entry changes,
// and may vanish while its own entry is un-synced; each file it keeps is in
// any of its states.
func (d *memDisk) crashImages(limit int, rng *rand.Rand) ([]*memDisk, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var images []*crashImage
	if !d.durable {
		images = append(images, nil)
	}
	if d.exists {
		states := map[*inode][][]byte{}
		entries := maps.Clone(d.synced)
		for p := 0; ; p++ {
			c := &crashImage{}
			for name, n := range entries {
				c.names = append(c.names, name)
				if states[n] == nil {
					states[n] = n.states()
				}
			}
			slices.Sort(c.names)
			for _, name := range c.names {
				c.states = append(c.states, states[entries[name]])
			}
			images = append(images, c)
			if p == len(d.dirOps) {
				break
			}
			d.dirOps[p].applyTo(entries)
		}
	}
	total := 0
	for _, c := range images {
		total += c.count()
	}
	var disks []*memDisk
	if total > limit {
		last := images[len(images)-1]
		disks = append(disks, last.disk(func(i int) int { return len(last.states[i]) - 1 }))
		for len(disks) < limit {
			c := images[rng.Intn(len(images))]
			disks = append(disks, c.disk(func(i int) int { return rng.Intn(len(c.states[i])) }))
		}
		return disks, total
	}
	for _, c := range images {
		for k := range c.count() {
			disks = append(disks, c.disk(func(i int) int {
				j := k % len(c.states[i])
				k /= len(c.states[i])
				return j
			}))
		}
	}
	return disks, total
}

// memFile is an open file of a memDisk: it writes at its position, or with
// append set at the end.
type memFile struct {
	d      *memDisk
	ino    *inode
	name   string
	append bool
	pos    int
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	err := f.d.do("write", f.name)
	n := len(p)
	switch {
	case errors.Is(err, io.ErrShortWrite):
		n = len(p) / 2
	case err != nil:
		return 0, err
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if f.append {
		f.pos = len(f.ino.data)
	}
	f.ino.apply(fileOp{off: f.pos, data: slices.Clone(p[:n])})
	f.pos += n
	return n, err
}

func (f *memFile) Sync() error {
	if err := f.d.do("sync", f.name); err != nil {
		return err
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.ino.synced, f.ino.pending = slices.Clone(f.ino.data), nil
	return nil
}

// Close releases the file even when it reports a failure, as close(2) does.
func (f *memFile) Close() error {
	err := f.d.do("close", f.name)
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.closed && err == nil {
		err = fs.ErrClosed
	}
	f.closed = true
	return err
}

// mustOpenDisk opens an engine over d or fails the test.
func mustOpenDisk(t testing.TB, st *store.Store, opts Options, d *memDisk) *Engine {
	t.Helper()
	eng, err := open(st, opts, d)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return eng
}

// TestMemDiskMatchesOSDisk runs one script of disk operations over a memDisk
// and over an osDisk whose directory and its parent do not exist yet: after
// every step both must list the same names holding the same bytes, and a
// failed step must fail on both, with fs.ErrNotExist on both or neither.
func TestMemDiskMatchesOSDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "parent", "data")
	disks := []disk{&memDisk{}, osDisk{dir}}
	write := func(name string, create bool, chunks ...string) func(d disk) error {
		return func(d disk) error {
			open := d.openAppend
			if create {
				open = d.create
			}
			f, err := open(name)
			if err != nil {
				return err
			}
			for _, c := range chunks {
				if _, err := f.Write([]byte(c)); err != nil {
					return err
				}
			}
			if err := f.Sync(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	read := func(name string) func(d disk) error {
		return func(d disk) error { _, err := readAll(d, name); return err }
	}
	script := []struct {
		name string
		step func(d disk) error
	}{
		{"list a missing directory", func(d disk) error { _, err := d.list(); return err }},
		{"mkdir", func(d disk) error { return d.mkdir() }},
		{"mkdir again", func(d disk) error { return d.mkdir() }},
		{"sync the parent", func(d disk) error { return d.syncDir("..") }},
		{"read a missing file", read("a.wal")},
		{"append to a missing file", write("a.wal", false, "x")},
		{"create", write("a.wal", true, "hello", " world")},
		{"append", write("a.wal", false, "!")},
		{"create over an existing file", write("a.wal", true, "new")},
		{"create a temp file", write("b.seg.tmp", true, "segment")},
		{"rename", func(d disk) error { return d.rename("b.seg.tmp", "b.seg") }},
		{"rename a missing file", func(d disk) error { return d.rename("b.seg.tmp", "c.seg") }},
		{"truncate", func(d disk) error { return d.truncate("b.seg", 3) }},
		{"truncate a missing file", func(d disk) error { return d.truncate("c.seg", 0) }},
		{"create an empty file", write("c.wal", true)},
		{"remove", func(d disk) error { return d.remove("c.wal") }},
		{"remove a missing file", func(d disk) error { return d.remove("c.wal") }},
		{"read a removed file", read("c.wal")},
		{"sync the directory", func(d disk) error { return d.syncDir(".") }},
	}
	for _, s := range script {
		var state [2]string
		var errs [2]error
		for i, d := range disks {
			errs[i] = s.step(d)
			names, err := d.list()
			state[i] = fmt.Sprint(names, errors.Is(err, fs.ErrNotExist))
			for _, name := range names {
				data, err := readAll(d, name)
				state[i] += fmt.Sprintf(" %s=%q %v", name, data, err)
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) || errors.Is(errs[0], fs.ErrNotExist) != errors.Is(errs[1], fs.ErrNotExist) {
			t.Fatalf("%s: memDisk returned %v, osDisk %v", s.name, errs[0], errs[1])
		}
		if state[0] != state[1] {
			t.Fatalf("%s: memDisk holds %s\nosDisk holds %s", s.name, state[0], state[1])
		}
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("osDisk.mkdir did not create the data directory and its missing parent: %v", err)
	}
}
