package durable

import (
	"errors"
	"io"
	"sync"
)

// faultDisk is the disk the fault tests run the engine on: an os disk over a
// real directory, with every operation recorded and first offered to inject,
// which may fail it. inject sees the operation's name — mkdir, list, read,
// create, append, rename, remove, truncate, syncdir, write, sync, close — and
// the file it names ("." or ".." for syncdir, "" for mkdir and list, the
// source for rename); a nil error forwards the operation, any other is
// returned in its place, except that io.ErrShortWrite on a write forwards the
// first half of the bytes before failing. inject may block, to park the
// caller. Syncs are recorded but never forwarded: no test crashes the
// kernel, so a real fsync would only cost time.
type faultDisk struct {
	disk
	inject func(op, name string) error

	mu  sync.Mutex
	ops []string // "op name", in issue order
}

func newFaultDisk(dir string, inject func(op, name string) error) *faultDisk {
	return &faultDisk{disk: osDisk{dir}, inject: inject}
}

// do records one operation and asks inject about it.
func (d *faultDisk) do(op, name string) error {
	d.mu.Lock()
	d.ops = append(d.ops, op+" "+name)
	d.mu.Unlock()
	if d.inject == nil {
		return nil
	}
	return d.inject(op, name)
}

// log returns the operations issued so far.
func (d *faultDisk) log() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.ops...)
}

func (d *faultDisk) mkdir() error {
	if err := d.do("mkdir", ""); err != nil {
		return err
	}
	return d.disk.mkdir()
}

func (d *faultDisk) list() ([]string, error) {
	if err := d.do("list", ""); err != nil {
		return nil, err
	}
	return d.disk.list()
}

func (d *faultDisk) readFile(name string) ([]byte, error) {
	if err := d.do("read", name); err != nil {
		return nil, err
	}
	return d.disk.readFile(name)
}

func (d *faultDisk) create(name string) (file, error) {
	return d.wrap("create", name, d.disk.create)
}

func (d *faultDisk) openAppend(name string) (file, error) {
	return d.wrap("append", name, d.disk.openAppend)
}

func (d *faultDisk) wrap(op, name string, open func(string) (file, error)) (file, error) {
	if err := d.do(op, name); err != nil {
		return nil, err
	}
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, d: d, name: name}, nil
}

func (d *faultDisk) rename(from, to string) error {
	if err := d.do("rename", from); err != nil {
		return err
	}
	return d.disk.rename(from, to)
}

func (d *faultDisk) remove(name string) error {
	if err := d.do("remove", name); err != nil {
		return err
	}
	return d.disk.remove(name)
}

func (d *faultDisk) truncate(name string, size int64) error {
	if err := d.do("truncate", name); err != nil {
		return err
	}
	return d.disk.truncate(name, size)
}

func (d *faultDisk) syncDir(name string) error { return d.do("syncdir", name) }

// faultFile is a file of a faultDisk.
type faultFile struct {
	f    file
	d    *faultDisk
	name string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.d.do("write", f.name); err != nil {
		if errors.Is(err, io.ErrShortWrite) {
			n, _ := f.f.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error { return f.d.do("sync", f.name) }

// Close releases the descriptor even when it reports a failure, as close(2)
// does.
func (f *faultFile) Close() error {
	err := f.d.do("close", f.name)
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}
