package node

import (
	"testing"
	"time"

	"gemsim/internal/model"
)

// TestGEMPageTransferExtension exercises the page-exchange-through-GEM
// extension discussed in the paper's conclusions: page transfers use
// two synchronous GEM page accesses plus a short message handshake
// instead of a long page message.
func TestGEMPageTransferExtension(t *testing.T) {
	gen := func() *scriptGen {
		return &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(1)}}},
		}}
	}
	params := testParams(2, CouplingGEM, false)
	_, base := runScript(t, params, gen(), 100, 2*time.Second)

	params2 := testParams(2, CouplingGEM, false)
	params2.GEMPageTransfer = true
	sys, viaGEM := runScript(t, params2, gen(), 100, 2*time.Second)

	if viaGEM.PageRequests == 0 {
		t.Fatal("page exchanges still expected")
	}
	if viaGEM.LongMessages >= base.LongMessages {
		t.Fatalf("GEM transfer must replace long messages: %d vs %d", viaGEM.LongMessages, base.LongMessages)
	}
	if sys.GEMDevice().PageAccesses() == 0 {
		t.Fatal("GEM page accesses expected for page exchange")
	}
	if viaGEM.MeanPageReqDelay >= base.MeanPageReqDelay {
		t.Fatalf("GEM page exchange (%v) should be faster than message transfer (%v)",
			viaGEM.MeanPageReqDelay, base.MeanPageReqDelay)
	}
}

// TestInstantWakeupAblation verifies the idealized wakeup switch
// removes the wakeup messages of GEM locking.
func TestInstantWakeupAblation(t *testing.T) {
	gen := func() *scriptGen {
		return &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
			{Type: 1, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		}}
	}
	params := testParams(2, CouplingGEM, false)
	_, base := runScript(t, params, gen(), 100, 2*time.Second)
	if base.LockWaits == 0 {
		t.Fatal("workload must produce lock conflicts")
	}

	params2 := testParams(2, CouplingGEM, false)
	params2.InstantWakeup = true
	_, instant := runScript(t, params2, gen(), 100, 2*time.Second)
	if instant.ShortMessages >= base.ShortMessages {
		t.Fatalf("instant wakeup must remove wakeup messages: %d vs %d",
			instant.ShortMessages, base.ShortMessages)
	}
}

// TestNVCacheAbsorbsForceWrites checks the interplay of FORCE commit
// processing with a shared non-volatile disk cache on the hot file.
func TestNVCacheAbsorbsForceWrites(t *testing.T) {
	db := func(medium model.Medium) model.Database {
		return model.Database{Files: []model.File{
			{ID: 1, Name: "DATA", Pages: 64, BlockingFactor: 10, Locking: true, Medium: medium},
		}}
	}
	mk := func(medium model.Medium) (*System, Metrics) {
		gen := &scriptGen{db: db(medium), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
			{Type: 0, Refs: []model.Ref{{Page: pgID(2), Write: true}}},
		}}
		params := testParams(1, CouplingGEM, true)
		return runScript(t, params, gen, 40, 2*time.Second)
	}
	_, plain := mk(model.MediumDisk)
	sysNV, nv := mk(model.MediumDiskCacheNV)
	if nv.MeanResponseTime >= plain.MeanResponseTime {
		t.Fatalf("NV cache (%v) must beat plain disk (%v) under FORCE",
			nv.MeanResponseTime, plain.MeanResponseTime)
	}
	// The force-writes must actually be absorbed by the cache.
	g := sysNV.Group(1)
	if g.Cache() == nil || g.Cache().Peek(pgID(1)) == nil && g.Cache().Peek(pgID(2)) == nil {
		t.Fatal("written pages must be cached")
	}
	// Saving is roughly the difference between a disk write (16.4 ms)
	// and a cache write (1.4 ms) per force-write.
	saving := plain.MeanResponseTime - nv.MeanResponseTime
	if saving < 10*time.Millisecond {
		t.Fatalf("saving %v, want >= 10ms", saving)
	}
}

// TestWriteBackSkipsStaleOwner: a NOFORCE owner whose page version was
// superseded elsewhere must not write its stale copy over the disk.
func TestWriteBackSkipsStaleOwner(t *testing.T) {
	// Node 0 and node 1 alternate writing page 1; small buffers force
	// frequent replacement of the dirty copies.
	// Both nodes alternate writing the shared page 1; the read-only
	// filler transactions flood the tiny buffer so the dirty copy is
	// replaced (write-back) while ownership keeps moving between the
	// nodes.
	gen := &scriptGen{db: testDB(), txns: []model.Txn{
		{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(30)}, {Page: pgID(31)}, {Page: pgID(32)}, {Page: pgID(33)}, {Page: pgID(34)}}},
		{Type: 0, Refs: []model.Ref{{Page: pgID(35)}, {Page: pgID(36)}, {Page: pgID(37)}, {Page: pgID(38)}, {Page: pgID(39)}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(1), Write: true}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(40)}, {Page: pgID(41)}, {Page: pgID(42)}, {Page: pgID(43)}, {Page: pgID(44)}}},
		{Type: 1, Refs: []model.Ref{{Page: pgID(45)}, {Page: pgID(46)}, {Page: pgID(47)}, {Page: pgID(48)}, {Page: pgID(49)}}},
	}}
	params := testParams(2, CouplingGEM, false)
	params.BufferPages = 4
	// The oracle (enabled by testParams) asserts that no stale version
	// ever reaches the disk with a regressing sequence number and that
	// all reads see current data.
	_, m := runScript(t, params, gen, 80, 3*time.Second)
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
	if m.StorageWrites == 0 {
		t.Fatal("replacement write-backs expected with a 4-page buffer")
	}
}

// TestGEMMessagingReducesPCLOverhead: exchanging the PCL protocol
// messages across GEM (section 2's storage-based communication) cuts
// both the CPU overhead and the message latency of remote lock
// processing.
func TestGEMMessagingReducesPCLOverhead(t *testing.T) {
	gen := func() *scriptGen {
		return &scriptGen{db: testDB(), txns: []model.Txn{
			{Type: 0, Refs: []model.Ref{{Page: pgID(1), Write: true}}}, // GLA at node 1: remote
		}}
	}
	base := testParams(2, CouplingPCL, false)
	_, net := runScript(t, base, gen(), 60, 2*time.Second)

	viaGEM := testParams(2, CouplingPCL, false)
	viaGEM.GEMMessaging = true
	sys, gm := runScript(t, viaGEM, gen(), 60, 2*time.Second)

	if gm.MeanResponseTime >= net.MeanResponseTime {
		t.Fatalf("GEM messaging (%v) must beat network messaging (%v)",
			gm.MeanResponseTime, net.MeanResponseTime)
	}
	if sys.GEMDevice().EntryAccesses() == 0 {
		t.Fatal("short messages must travel through GEM entries")
	}
	if gm.ShortMessages == 0 {
		t.Fatal("message counting must still work with GEM transport")
	}
}
