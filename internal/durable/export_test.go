package durable

import "repro/internal/store"

// OpenOnMemDisk is Open over a data directory that does not exist yet, held
// by the memory disk (memdisk_test.go), with background merges off: inject
// is asked about every disk operation by its name and file name, and an
// error it returns fails the operation. opts.Dir is not used.
func OpenOnMemDisk(st *store.Store, opts Options, inject func(op, name string) error) (*Engine, error) {
	opts.mergeRatio = -1
	return open(st, opts, &memDisk{inject: inject})
}
