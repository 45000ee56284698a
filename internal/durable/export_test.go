package durable

import (
	"math/rand"
	"slices"

	"repro/internal/store"
)

// OpenOnMemDisk is Open over a data directory that does not exist yet, held
// by the memory disk (memdisk_test.go), with background merges off: inject
// is asked about every disk operation by its name and file name, and an
// error it returns fails the operation. opts.Dir is not used.
func OpenOnMemDisk(st *store.Store, opts Options, inject func(op, name string) error) (*Engine, error) {
	d := NewMemDisk()
	d.SetInject(inject)
	return d.Open(st, opts)
}

// MemDisk is the memory disk for the external tests: a data directory they
// open an engine over, crash, and reopen from any image the crash may leave.
type MemDisk struct{ d *memDisk }

// NewMemDisk returns a data directory that does not exist yet.
func NewMemDisk() *MemDisk { return &MemDisk{&memDisk{}} }

// SetInject replaces the hook asked about every disk operation, as
// OpenOnMemDisk's inject is; nil lets every operation run.
func (m *MemDisk) SetInject(inject func(op, name string) error) { m.d.setInject(inject) }

// Open is Open over the disk, with background merges off; opts.Dir is not
// used.
func (m *MemDisk) Open(st *store.Store, opts Options) (*Engine, error) {
	opts.mergeRatio = -1
	return open(st, opts, m.d)
}

// CrashImages returns directories a crash at this instant may leave: every
// one while there are at most limit, else limit of them, the one a process
// kill leaves first and the rest drawn with rng (memDisk.crashImages).
func (m *MemDisk) CrashImages(limit int, rng *rand.Rand) []*MemDisk {
	disks, _ := m.d.crashImages(limit, rng)
	out := make([]*MemDisk, len(disks))
	for i, d := range disks {
		out[i] = &MemDisk{d}
	}
	return out
}

// Merge folds the segment chain from tier index from to its end into one
// segment, as a background merge would, before it returns; a run of fewer
// than two segments is left as it is.
func (e *Engine) Merge(from int) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.Lock() //ontolint:ignore lockcheck fixed one-way order: ckptMu is always taken before mu, as runMerges takes them
	run := slices.Clone(e.tiers[from:])
	e.mu.Unlock()
	if len(run) < 2 {
		return nil
	}
	return e.mergeRun(from, run)
}
