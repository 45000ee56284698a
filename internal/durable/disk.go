package durable

import (
	"errors"
	"fmt"
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
	readFile(name string) ([]byte, error)
	// readRange reads name's bytes [from, to); to < 0 reads to the end.
	readRange(name string, from, to int64) ([]byte, error)
	create(name string) (file, error) // create or truncate, for writing
	openAppend(name string) (file, error)
	rename(from, to string) error
	remove(name string) error
	truncate(name string, size int64) error
	syncDir(name string) error // "." the data directory, ".." its parent
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

func (d osDisk) readFile(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

func (d osDisk) readRange(name string, from, to int64) ([]byte, error) {
	f, err := os.Open(d.path(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if to < 0 {
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		to = fi.Size()
	}
	if to < from {
		return nil, fmt.Errorf("reading %s: range [%d, %d) is past its end", name, from, to)
	}
	buf := make([]byte, to-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, err
	}
	return buf, nil
}

func (d osDisk) create(name string) (file, error) {
	return d.open(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
}

func (d osDisk) openAppend(name string) (file, error) {
	return d.open(name, os.O_WRONLY|os.O_APPEND)
}

// open opens name with flag, handing back a nil interface on failure.
func (d osDisk) open(name string, flag int) (file, error) {
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
