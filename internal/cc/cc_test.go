package cc

import (
	"testing"

	"gemsim/internal/model"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
	}{
		{"", KindDefault},
		{"2pl", KindDefault},
		{"default", KindDefault},
		{"mvto", KindMVTO},
		{"occ", KindOCC},
		{"had", KindHAD},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
		if rt, err := Parse(got.String()); err != nil || rt != got {
			t.Errorf("Parse(String(%v)) = %v, %v; want round trip", got, rt, err)
		}
	}
	if _, err := Parse("mvcc"); err == nil {
		t.Error("Parse accepted unknown engine name")
	}
}

func TestVersionStoreReadVisibility(t *testing.T) {
	vs := NewVersionStore(4)
	const pg int32 = 0
	// Base version (WTS 0) visible to everyone.
	v, old := vs.Read(pg, 10, 42)
	if v.WTS != 0 || v.Seq != 42 || old {
		t.Fatalf("base read = %+v old=%v, want base seq 42, newest", v, old)
	}
	vs.Commit(pg, 20, 100, 42)
	vs.Commit(pg, 30, 101, 42)
	// A reader between the two versions sees the older one and reports
	// an old-version read.
	if v, old = vs.Read(pg, 25, 42); v.WTS != 20 || v.Seq != 100 || !old {
		t.Errorf("read at ts 25 = %+v old=%v, want WTS 20 seq 100, old", v, old)
	}
	// A younger reader sees the newest.
	if v, old = vs.Read(pg, 35, 42); v.WTS != 30 || v.Seq != 101 || old {
		t.Errorf("read at ts 35 = %+v old=%v, want WTS 30 seq 101, newest", v, old)
	}
	// A reader older than every version gets the base.
	if v, _ = vs.Read(pg, 0, 42); v.WTS != 0 {
		t.Errorf("read at ts 0 = %+v, want base", v)
	}
}

func TestVersionStoreWriteChecks(t *testing.T) {
	vs := NewVersionStore(4)
	const pg int32 = 7
	// First writer observes the base and is admissible.
	obs, ok, _ := vs.WriteObserve(pg, 10, 0)
	if obs != 0 || !ok {
		t.Fatalf("WriteObserve = %d, %v; want base 0, admissible", obs, ok)
	}
	// A younger reader of the predecessor blocks an older writer.
	vs.Read(pg, 15, 0)
	if _, ok, reason := vs.WriteObserve(pg, 12, 0); ok || reason != ReasonLateWrite {
		t.Errorf("write under younger reader admitted (ok=%v reason=%q)", ok, reason)
	}
	// The first writer still passes its re-check and commits.
	if ok, _ := vs.Recheck(pg, 20, 0, 0); !ok {
		t.Error("recheck failed with unchanged history")
	}
	vs.Commit(pg, 20, 100, 0)
	// A concurrent writer that observed the base now fails first
	// committer wins.
	if ok, reason := vs.Recheck(pg, 25, 0, 0); ok || reason != ReasonWW {
		t.Errorf("recheck after interleaved commit = %v %q, want ww-conflict", ok, reason)
	}
	// A younger writer observing the new version is admissible.
	if obs, ok, _ = vs.WriteObserve(pg, 30, 0); obs != 20 || !ok {
		t.Errorf("WriteObserve after commit = %d, %v; want 20, admissible", obs, ok)
	}
	// An older writer is rejected outright.
	if _, ok, reason := vs.WriteObserve(pg, 5, 0); ok || reason != ReasonLateWrite {
		t.Errorf("late write admitted (ok=%v reason=%q)", ok, reason)
	}
}

func TestVersionStorePruning(t *testing.T) {
	vs := NewVersionStore(2)
	const pg int32 = 2
	vs.Commit(pg, 10, 100, 1)
	vs.Commit(pg, 20, 101, 1)
	vs.Commit(pg, 30, 102, 1)
	// Base and WTS-10 pruned; an ancient reader gets the oldest
	// retained version.
	if v, old := vs.Read(pg, 5, 1); v.WTS != 20 || !old {
		t.Errorf("pruned read = %+v old=%v, want oldest retained WTS 20", v, old)
	}
}

func TestConflictError(t *testing.T) {
	err := &Conflict{Reason: ReasonValidation, Page: model.PageID{File: 1, Page: 9}}
	if err.Error() == "" {
		t.Error("empty conflict message")
	}
}
