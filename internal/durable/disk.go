package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// This file is the package's one door to the file system: a disk is the
// data directory, with one method per syscall the engine issues, taking file
// names, never paths. osDisk is the only implementation; tests substitute a
// fault-injecting fake. The callers' ordering rules are DESIGN.md's "The disk
// seam"; the door test keeps every other non-test file from importing os.
type disk interface {
	// mkdir creates the data directory and any missing ancestor, each
	// synced into its parent.
	mkdir() error
	list() ([]string, error)
	// open opens name for reading: the package's one read door. Every
	// reader of a data-directory file reads it through a source, a few KiB
	// at a time (reader.go), never whole.
	open(name string) (source, error)
	// readBuf is the size a reader of this disk's files starts its buffer
	// at: readBufSize on a real directory.
	readBuf() int
	create(name string) (file, error) // create or truncate, for writing
	openAppend(name string) (file, error)
	rename(from, to string) error
	remove(name string) error
	truncate(name string, size int64) error
	syncDir(name string) error // "." the data directory, ".." its parent
}

// source is a file of the data directory open for reading: bytes read at
// any offset, and the file's size when it was opened.
type source interface {
	io.ReaderAt
	Size() int64
	Close() error
}

// file is an open file of the data directory.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osDisk is the disk of a real directory.
type osDisk struct{ dir string }

func (d osDisk) path(name string) string { return filepath.Join(d.dir, name) }

func (d osDisk) mkdir() error {
	if _, err := os.Stat(d.dir); !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	up := osDisk{filepath.Dir(d.dir)}
	if err := up.mkdir(); err != nil {
		return err
	}
	if err := os.Mkdir(d.dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return up.syncDir(".")
}

func (d osDisk) list() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

// osSource is a file of a real directory open for reading.
type osSource struct {
	*os.File
	size int64
}

func (s osSource) Size() int64 { return s.size }

func (d osDisk) open(name string) (source, error) {
	f, err := os.Open(d.path(name))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return osSource{f, fi.Size()}, nil
}

func (osDisk) readBuf() int { return readBufSize }

func (d osDisk) create(name string) (file, error) {
	return d.openFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
}

func (d osDisk) openAppend(name string) (file, error) {
	return d.openFile(name, os.O_WRONLY|os.O_APPEND)
}

// openFile opens name with flag, handing back a nil interface on failure.
func (d osDisk) openFile(name string, flag int) (file, error) {
	f, err := os.OpenFile(d.path(name), flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (d osDisk) rename(from, to string) error { return os.Rename(d.path(from), d.path(to)) }

func (d osDisk) remove(name string) error { return os.Remove(d.path(name)) }

func (d osDisk) truncate(name string, size int64) error { return os.Truncate(d.path(name), size) }

func (d osDisk) syncDir(name string) error {
	f, err := os.Open(d.path(name))
	if err != nil {
		return err
	}
	serr := f.Sync()
	if err := f.Close(); serr == nil {
		serr = err
	}
	return serr
}
