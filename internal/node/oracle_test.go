package node

import (
	"testing"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/sim"
)

func opg(n int32) model.PageID { return model.PageID{File: 1, Page: n} }

func TestOracleTracksCommits(t *testing.T) {
	o := newOracle()
	o.commit(opg(1), 1)
	o.commit(opg(1), 2)
	o.checkAccess(opg(1), 2, true)
	o.checkAccess(opg(1), 3, true) // own in-flight modification is fine
}

func TestOracleCommitRegressionPanics(t *testing.T) {
	o := newOracle()
	o.commit(opg(1), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.commit(opg(1), 2)
}

func TestOracleStaleAccessPanics(t *testing.T) {
	o := newOracle()
	o.commit(opg(1), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.checkAccess(opg(1), 4, true)
}

func TestOracleUnlockedFilesExempt(t *testing.T) {
	o := newOracle()
	o.commit(opg(1), 5)
	o.checkAccess(opg(1), 1, false)      // latch-protected files are exempt
	o.checkStorageRead(opg(1), 5, false) // likewise for storage reads
}

func TestOracleStorageReads(t *testing.T) {
	o := newOracle()
	o.storageWrite(opg(1), 3)
	o.checkStorageRead(opg(1), 3, true)
	o.checkStorageRead(opg(1), 2, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for stale storage read")
		}
	}()
	o.checkStorageRead(opg(1), 4, true)
}

func TestOracleStorageRegressionPanics(t *testing.T) {
	o := newOracle()
	o.storageWrite(opg(1), 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.storageWrite(opg(1), 2)
}

// TestFreshAppendPagesSkipReads checks the model's fresh-page rule for
// append-only files, which needs no oracle: a HISTORY page that never
// reached storage is allocated in place with no read, while one that
// was evicted and written back is read back from storage. A run
// without CheckInvariants builds no oracle.
func TestFreshAppendPagesSkipReads(t *testing.T) {
	db := model.Database{Files: []model.File{
		{ID: 1, Name: "DATA", Pages: 64, BlockingFactor: 10, Locking: true, Medium: model.MediumDisk},
		{ID: 2, Name: "HISTORY", BlockingFactor: 4, AppendOnly: true, Medium: model.MediumDisk},
	}}
	history := model.PageID{File: 2, Page: model.AppendPage}
	run := func(bufferPages int) (*System, Metrics) {
		gen := &scriptGen{db: db, txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: history, Write: true}, {Page: pgID(1)}, {Page: pgID(2)}}},
			{Type: 0, Refs: []model.Ref{{Page: history, Write: true}, {Page: pgID(3)}, {Page: pgID(4)}}},
		}}
		params := testParams(1, CouplingGEM, false)
		params.CheckInvariants = false
		params.BufferPages = bufferPages
		return runScript(t, params, gen, 20, 2*time.Second)
	}

	// Every HISTORY page stays buffered: each is allocated in place.
	sys, m := run(64)
	if m.Commits < 20 {
		t.Fatalf("commits %d, want >= 20", m.Commits)
	}
	if sys.oracle != nil {
		t.Fatal("a run without CheckInvariants must build no oracle")
	}
	if got := sys.Group(2).Reads(); got != 0 {
		t.Fatalf("HISTORY reads %d, want 0: fresh pages need no read I/O", got)
	}

	// Two frames: the partly filled HISTORY page is evicted behind the
	// DATA reads, written back, and read back for the next insert.
	sys, _ = run(2)
	if sys.Group(2).Writes() == 0 || sys.Group(2).Reads() == 0 {
		t.Fatalf("HISTORY writes %d reads %d: an evicted, written page must be read back",
			sys.Group(2).Writes(), sys.Group(2).Reads())
	}

	params := testParams(1, CouplingGEM, false)
	sys, err := NewSystem(sim.NewEnv(), params, &scriptGen{db: db}, typeRouter{1}, modGLA{1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.oracle == nil {
		t.Fatal("CheckInvariants must build the oracle")
	}
}
