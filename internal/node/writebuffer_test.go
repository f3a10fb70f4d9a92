package node

import (
	"testing"
	"time"

	"gemsim/internal/model"
)

// wbDB allocates the data file to a disk group fronted by a GEM write
// buffer.
func wbDB() model.Database {
	return model.Database{Files: []model.File{
		{ID: 1, Name: "DATA", Pages: 64, BlockingFactor: 10, Locking: true, Medium: model.MediumGEMWriteBuffer},
	}}
}

func TestGEMWriteBufferAbsorbsForceWrites(t *testing.T) {
	mk := func(medium model.Medium) Metrics {
		db := wbDB()
		db.Files[0].Medium = medium
		gen := &scriptGen{db: db, txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
			{Type: 0, Refs: []model.Ref{{Page: pgID(2), Write: true}}},
		}}
		_, m := runScript(t, testParams(1, CouplingGEM, true), gen, 40, 2*time.Second)
		return m
	}
	plain := mk(model.MediumDisk)
	wb := mk(model.MediumGEMWriteBuffer)
	if wb.WriteBufferWrites == 0 {
		t.Fatal("write buffer writes expected")
	}
	// The force-write at commit costs 50 µs instead of 16.4 ms.
	saving := plain.MeanResponseTime - wb.MeanResponseTime
	if saving < 10*time.Millisecond {
		t.Fatalf("write buffer saving %v, want >= 10ms", saving)
	}
}

func TestGEMWriteBufferServesRecentWrites(t *testing.T) {
	// Two nodes under FORCE: node 0 writes, node 1 reads right after;
	// the read must hit the write buffer (the asynchronous disk update
	// may not have completed, and even when it has, the entry lingers
	// until destage completion).
	gen := &scriptGen{db: wbDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(1)}}},
	}}
	params := testParams(2, CouplingGEM, true)
	// 25 TPS per node keeps the single shared page below its lock
	// serialization ceiling (the writer holds it ~17 ms per commit).
	_, m := runScript(t, params, gen, 25, 2*time.Second)
	if m.WriteBufferReadHits == 0 {
		t.Fatal("expected read hits in the write buffer")
	}
	// Invalidation misses served from GEM keep response times near the
	// CPU/lock-dominated level despite FORCE and heavy sharing; a disk
	// based allocation would add a 16.4 ms read per invalidation.
	if m.MeanResponseTime > 100*time.Millisecond {
		t.Fatalf("RT %v unexpectedly high with a write buffer", m.MeanResponseTime)
	}
}

func TestGEMWriteBufferDrainsToDisk(t *testing.T) {
	gen := &scriptGen{db: wbDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
	}}
	params := testParams(1, CouplingGEM, true)
	sys, _ := runScript(t, params, gen, 20, 2*time.Second)
	// After the run the asynchronous destages must have gone to disk.
	if sys.Group(1).Writes() == 0 {
		t.Fatal("asynchronous disk updates expected")
	}
	// The buffer holds only in-flight pages; with 20 TPS and a 16.4 ms
	// destage, the steady-state backlog is well below ten pages.
	backlog := 0
	for i := int32(0); i < int32(sys.dir.Len()); i++ {
		if sys.dir.At(i).Buffered {
			backlog++
		}
	}
	if backlog > 10 {
		t.Fatalf("write buffer backlog %d, want small", backlog)
	}
}

func TestGEMWriteBufferNoforceEvictions(t *testing.T) {
	// NOFORCE replacement write-backs also go through the write
	// buffer, making evictions cheap.
	gen := &scriptGen{db: wbDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(10)}, {Page: pgID(11)}, {Page: pgID(12)}, {Page: pgID(13)}, {Page: pgID(14)}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(15)}, {Page: pgID(16)}, {Page: pgID(17)}, {Page: pgID(18)}, {Page: pgID(19)}}},
	}}
	params := testParams(1, CouplingGEM, false)
	params.BufferPages = 4
	_, m := runScript(t, params, gen, 60, 3*time.Second)
	if m.WriteBufferWrites == 0 {
		t.Fatal("evicted dirty pages must pass through the write buffer")
	}
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
}
