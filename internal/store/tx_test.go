package store

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// recJournal records every mutation it is handed (copied: a journal may not
// retain the slices) and fails commits on demand.
type recJournal struct {
	adds, removes [][]IDTriple
	at            []Position
	err           error
}

func (j *recJournal) JournalDict(SymbolID, []string) {}

func (j *recJournal) JournalMutation(adds, removes []IDTriple, at Position) {
	j.adds = append(j.adds, append([]IDTriple(nil), adds...))
	j.removes = append(j.removes, append([]IDTriple(nil), removes...))
	j.at = append(j.at, at)
}

func (j *recJournal) JournalWait() error { return j.err }

// TestTxCommitsOneMutation: whatever mix of the six write methods a handle
// ran in one section, the journal hears nothing until the section ends and
// then exactly one mutation — the triples actually inserted (duplicates
// excluded) and the triples actually deleted — stamped with the section's
// position, and a handle that changed nothing never calls it.
func TestTxCommitsOneMutation(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"old", "p", "o"})
	j := &recJournal{}
	s.SetJournal(j)
	id := func(name string) SymbolID {
		v, err := s.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	tx := s.Begin()
	g := IDTriple{id("g"), id("p"), id("h")}
	i := IDTriple{id("i"), id("p"), id("j")}
	s.Write(func() bool {
		fresh, err := tx.AddBatch([]Triple{{"a", "p", "b"}, {"a", "p", "b"}, {"old", "p", "o"}, {"c", "p", "d"}})
		if err != nil || len(fresh) != 2 {
			t.Fatalf("AddBatch = %v, %v; want the 2 fresh triples", fresh, err)
		}
		if added, err := tx.Add(Triple{"e", "p", "f"}); err != nil || !added {
			t.Fatalf("Add = %v, %v", added, err)
		}
		if added, err := tx.Add(Triple{"e", "p", "f"}); err != nil || added {
			t.Fatalf("duplicate Add = %v, %v", added, err)
		}
		if added, err := tx.AddID(g); err != nil || !added {
			t.Fatalf("AddID = %v, %v", added, err)
		}
		if added, err := tx.AddID(i); err != nil || !added {
			t.Fatalf("second AddID = %v, %v", added, err)
		}
		if !tx.Remove(Triple{"old", "p", "o"}) || tx.Remove(Triple{"old", "p", "o"}) || tx.Remove(Triple{"never", "seen", "it"}) {
			t.Fatal("Remove must report presence exactly")
		}
		if !tx.RemoveID(g) || tx.RemoveID(g) {
			t.Fatal("RemoveID must report presence exactly")
		}
		if len(j.adds) != 0 {
			t.Fatalf("the journal heard %d mutations inside the section", len(j.adds))
		}
		return true
	})
	if s.Len() != 4 || !s.Contains(Triple{"a", "p", "b"}) || s.Contains(Triple{"old", "p", "o"}) {
		t.Fatalf("the handle's writes must be visible before Commit; Len %d", s.Len())
	}
	if pos := s.Position(); len(j.at) != 1 || j.at[0] != pos || pos.Gen != 1 {
		t.Fatalf("the record is stamped %v, the store is at %v; want generation 1", j.at, pos)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(j.adds) != 1 || len(j.adds[0]) != 5 || len(j.removes[0]) != 2 {
		t.Fatalf("Commit journaled %d mutations, adds %v, removes %v; want one of 5 adds and 2 removes", len(j.adds), j.adds, j.removes)
	}
	if want := []IDTriple{{id("old"), id("p"), id("o")}, g}; !reflect.DeepEqual(j.removes[0], want) {
		t.Fatalf("removes journaled as %v, want %v", j.removes[0], want)
	}
	if err := tx.Commit(); err != nil || len(j.adds) != 1 {
		t.Fatalf("a second Commit must be a no-op: %v, %d mutations", err, len(j.adds))
	}

	// Nothing changed, nothing journaled — through a handle and through the
	// Store shorthands alike.
	idle := s.Begin()
	s.Write(func() bool {
		if _, err := idle.AddBatch([]Triple{{"a", "p", "b"}}); err != nil {
			t.Fatal(err)
		}
		idle.Remove(Triple{"old", "p", "o"})
		return false
	})
	if err := idle.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.AddBatch([]Triple{{"c", "p", "d"}}); n != 0 || err != nil {
		t.Fatalf("duplicate AddBatch = %d, %v", n, err)
	}
	if s.Remove(Triple{"old", "p", "o"}) {
		t.Fatal("Remove of an absent triple reported success")
	}
	if len(j.adds) != 1 {
		t.Fatalf("no-op writes journaled %d mutations", len(j.adds)-1)
	}

	// A failed commit: applied in memory, reported wrapping ErrJournal.
	j.err = errors.New("disk gone")
	if n, err := s.AddBatch([]Triple{{"k", "p", "l"}}); n != 1 || !errors.Is(err, ErrJournal) || !s.Contains(Triple{"k", "p", "l"}) {
		t.Fatalf("AddBatch under a failing journal = %d, %v", n, err)
	}
	if added, err := s.Add(Triple{"m", "p", "n"}); !added || !errors.Is(err, ErrJournal) {
		t.Fatalf("Add under a failing journal = %v, %v", added, err)
	}
	ftx := s.Begin()
	s.Write(func() bool {
		if !ftx.Remove(Triple{"k", "p", "l"}) {
			t.Fatal("Remove missed a present triple")
		}
		return false
	})
	if err := ftx.Commit(); !errors.Is(err, ErrJournal) || s.Contains(Triple{"k", "p", "l"}) {
		t.Fatalf("Commit of a removal under a failing journal = %v", err)
	}
}

// TestTxRefusesAddAfterRemove: a journaled record replays adds before
// removes, so a journaled handle whose section has removed refuses every add
// form — inserting nothing — until the section ends; a handle without a
// journal has no replay to protect and interleaves freely.
func TestTxRefusesAddAfterRemove(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"a", "p", "b"})
	s.SetJournal(&recJournal{})
	tx := s.Begin()
	ab, _ := s.syms.lookupTriple(Triple{"a", "p", "b"})
	s.Write(func() bool {
		tx.Remove(Triple{"a", "p", "b"})
		if _, err := tx.Add(Triple{"a", "p", "b"}); err == nil {
			t.Error("Add after Remove accepted")
		}
		if _, err := tx.AddID(ab); err == nil {
			t.Error("AddID after Remove accepted")
		}
		if _, err := tx.AddBatch([]Triple{{"a", "p", "b"}}); err == nil {
			t.Error("AddBatch after Remove accepted")
		}
		return true
	})
	if s.Len() != 0 {
		t.Fatalf("a refused add inserted: Len %d", s.Len())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Write(func() bool {
		if added, err := tx.Add(Triple{"a", "p", "b"}); err != nil || !added {
			t.Fatalf("Add in the next section = %v, %v", added, err)
		}
		return true
	})

	o := s.NewOverlay()
	otx := o.Begin()
	for i := 0; i < 3; i++ {
		if added, err := otx.AddID(ab); err != nil || !added {
			t.Fatalf("journal-less AddID round %d = %v, %v", i, added, err)
		}
		if !otx.RemoveID(ab) {
			t.Fatalf("journal-less RemoveID round %d missed", i)
		}
	}
}

// TestTxRemoveIDsJournalsWhatWasPresent: a batch removal long enough to be
// sorted and compacted journals each triple it deleted once, whatever the
// batch repeated or named in vain, and counts the same.
func TestTxRemoveIDsJournalsWhatWasPresent(t *testing.T) {
	s := New()
	var batch, present []IDTriple
	for i := 0; i < removeIDsMin; i++ {
		tr := Triple{fmt.Sprintf("i%d", i), TypePredicate, "hub"}
		s.MustAdd(tr)
		s.MustAdd(Triple{tr.Subject, "p", "o"})
		e, _ := s.syms.lookupTriple(tr)
		if i%2 == 0 {
			present = append(present, e)
			batch = append(batch, e, e)
		}
		absent, _ := s.syms.lookupTriple(Triple{tr.Subject, "p", "hub"})
		batch = append(batch, absent)
	}
	j := &recJournal{}
	s.SetJournal(j)
	tx := s.Begin()
	s.Write(func() bool {
		if n := tx.RemoveIDs(batch); n != len(present) {
			t.Fatalf("RemoveIDs = %d, want %d", n, len(present))
		}
		return false
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(j.removes) != 1 || !reflect.DeepEqual(j.removes[0], present) {
		t.Fatalf("journaled removes %v, want %v", j.removes, present)
	}
	if s.Len() != 2*removeIDsMin-len(present) {
		t.Fatalf("Len = %d after removing %d of %d", s.Len(), len(present), 2*removeIDsMin)
	}
}

// TestTxSingleTripleWritesDoNotAllocate: on a store without a journal (a
// reasoner's overlay) a handle records nothing, so an id-level add and remove
// of a triple whose index levels exist cost no allocation.
func TestTxSingleTripleWritesDoNotAllocate(t *testing.T) {
	s := New()
	// Neighbours in both indexes, so removing the triple empties no index
	// level (re-creating one would allocate, handle or no handle).
	for _, nb := range []Triple{{"a", "p", "b"}, {"a", "p", "c"}, {"z", "p", "c"}} {
		s.MustAdd(nb)
	}
	c, _ := s.syms.lookupTriple(Triple{"a", "p", "c"})
	tx := s.Begin()
	if allocs := testing.AllocsPerRun(100, func() {
		tx.RemoveID(c)
		if _, err := tx.AddID(c); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RemoveID+AddID through a journal-less handle allocates %.1f times", allocs)
	}
}
