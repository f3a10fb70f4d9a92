package cc

import "gemsim/internal/flatmap"

// Version is one committed page version in the MV-TO version store.
type Version struct {
	// WTS is the commit timestamp of the writer that installed the
	// version (0 for the base version predating every transaction).
	WTS uint64
	// Seq is the buffer sequence number identifying the version.
	Seq uint64
}

// VersionStore keeps, per page, a bounded history of committed versions
// plus the largest timestamp that read the page. Pages are keyed by
// their directory slot (internal/pagedir). It models the version
// metadata an MV-TO engine keeps in the coupling medium (GEM entries,
// GLA partitions); the hosting engine charges the access costs, the
// store is pure state. History is bounded: a reader older than the
// retained horizon observes the oldest retained version (the simulator
// carries no page contents, so this only shifts which sequence number
// the read reports).
type VersionStore struct {
	cap   int
	pages flatmap.Map[int32, *pageVersions]
}

type pageVersions struct {
	rts      uint64    // largest reader timestamp seen
	versions []Version // ascending WTS, versions[len-1] newest
	// first backs versions until the history outgrows it, so a page's
	// base version and its first committed one come with the record.
	first [2]Version
}

// NewVersionStore returns a store retaining up to capPerPage committed
// versions per page (minimum 2: the base and the newest).
func NewVersionStore(capPerPage int) *VersionStore {
	if capPerPage < 2 {
		capPerPage = 2
	}
	return &VersionStore{cap: capPerPage, pages: flatmap.Make[int32, *pageVersions](flatmap.Int32, 0)}
}

// page lazily initializes a page's history with its base version: the
// committed state predating every transaction, at the sequence number
// the coherency metadata records.
func (vs *VersionStore) page(slot int32, baseSeq uint64) *pageVersions {
	pv := vs.pages.Get(slot)
	if pv == nil {
		pv = &pageVersions{first: [2]Version{{WTS: 0, Seq: baseSeq}}}
		pv.versions = pv.first[:1]
		vs.pages.Put(slot, pv)
	}
	return pv
}

// Read returns the version a reader with timestamp ts observes — the
// newest version with WTS <= ts — and advances the page's read
// timestamp. old reports that an older-than-newest version was
// returned (the read pays an extra version-store access).
func (vs *VersionStore) Read(slot int32, ts, baseSeq uint64) (v Version, old bool) {
	pv := vs.page(slot, baseSeq)
	if ts > pv.rts {
		pv.rts = ts
	}
	for i := len(pv.versions) - 1; i >= 0; i-- {
		if pv.versions[i].WTS <= ts {
			return pv.versions[i], i != len(pv.versions)-1
		}
	}
	// ts predates the retained horizon; the oldest retained version is
	// the best available.
	return pv.versions[0], true
}

// WriteObserve checks whether a writer with timestamp ts may install a
// new version and returns the newest committed write timestamp it
// observed (recorded for the commit-time first-committer-wins
// re-check). The write is inadmissible when a younger writer already
// committed, or a younger reader observed the predecessor version
// (installing now would invalidate that read).
func (vs *VersionStore) WriteObserve(slot int32, ts, baseSeq uint64) (observedWTS uint64, ok bool, reason Reason) {
	pv := vs.page(slot, baseSeq)
	newest := pv.versions[len(pv.versions)-1]
	if newest.WTS >= ts || pv.rts > ts {
		return newest.WTS, false, ReasonLateWrite
	}
	return newest.WTS, true, ""
}

// Recheck re-validates a write at commit time: the newest committed
// version must still be the one observed at write time (first
// committer wins) and no younger reader may have appeared since.
func (vs *VersionStore) Recheck(slot int32, ts, observedWTS, baseSeq uint64) (ok bool, reason Reason) {
	pv := vs.page(slot, baseSeq)
	if newest := pv.versions[len(pv.versions)-1]; newest.WTS != observedWTS {
		return false, ReasonWW
	}
	if pv.rts > ts {
		return false, ReasonLateWrite
	}
	return true, ""
}

// Commit installs the committed version, pruning history beyond the
// retention bound.
func (vs *VersionStore) Commit(slot int32, ts, seq, baseSeq uint64) {
	pv := vs.page(slot, baseSeq)
	pv.versions = append(pv.versions, Version{WTS: ts, Seq: seq})
	if len(pv.versions) > vs.cap {
		pv.versions = pv.versions[len(pv.versions)-vs.cap:]
	}
}
