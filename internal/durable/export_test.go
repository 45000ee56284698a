package durable

import "repro/internal/store"

// OpenOnFaultDisk is Open with the data directory, opts.Dir, behind the fault
// disk (fault_test.go): inject is asked about every disk operation by its
// name and file name, and an error it returns fails the operation.
func OpenOnFaultDisk(st *store.Store, opts Options, inject func(op, name string) error) (*Engine, error) {
	return open(st, opts, newFaultDisk(opts.Dir, inject))
}
