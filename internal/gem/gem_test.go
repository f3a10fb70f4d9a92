package gem

import (
	"math/rand"
	"testing"
	"time"

	"gemsim/internal/cpusrv"
	"gemsim/internal/model"
	"gemsim/internal/sim"
)

// access runs n cycles of dev for p through a CPU-held composite with
// no instruction burst, so only the device's time passes.
func access(cpu *cpusrv.CPU, p *sim.Proc, dev *cpusrv.Device, n int) {
	cpu.Hold(p.Continuation(), 0, dev, n, nil)
	p.Park()
}

func TestAccessTimes(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 1, 10)
	var pageAt, entryAt sim.Time
	env.Spawn("u", func(p *sim.Proc) {
		access(cpu, p, g.Page(), 1)
		pageAt = env.Now()
		g.AccessEntryFn(p.Continuation())
		p.Park()
		entryAt = env.Now()
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if pageAt != 50*time.Microsecond {
		t.Fatalf("page access finished at %v, want 50µs", pageAt)
	}
	if entryAt != 52*time.Microsecond {
		t.Fatalf("entry access finished at %v, want 52µs", entryAt)
	}
	if g.PageAccesses() != 1 || g.EntryAccesses() != 1 {
		t.Fatalf("access counts %d/%d", g.PageAccesses(), g.EntryAccesses())
	}
}

func TestSingleServerQueueing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 3, 10)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		env.Spawn("u", func(p *sim.Proc) {
			access(cpu, p, g.Page(), 1)
			ends = append(ends, env.Now())
		})
	}
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{50 * time.Microsecond, 100 * time.Microsecond, 150 * time.Microsecond}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
}

func TestAccessEntriesCount(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) { access(cpu, p, g.Entries(), 4) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.EntryAccesses() != 4 {
		t.Fatalf("entry accesses %d, want 4", g.EntryAccesses())
	}
	if env.Now() != 8*time.Microsecond {
		t.Fatalf("clock %v, want 8µs", env.Now())
	}
}

func TestResidentFiles(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	if g.Resident(1) {
		t.Fatal("file 1 should not be resident")
	}
	g.AllocateFile(1)
	if !g.Resident(1) {
		t.Fatal("file 1 should be resident")
	}
}

func TestResetStats(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, DefaultParams())
	cpu := cpusrv.New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) {
		access(cpu, p, g.Page(), 1)
		g.ResetStats()
		p.Wait(time.Millisecond)
	})
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.PageAccesses() != 0 {
		t.Fatalf("page accesses after reset %d", g.PageAccesses())
	}
	if u := g.Utilization(); u != 0 {
		t.Fatalf("utilization after reset %v", u)
	}
}

func TestDefaultServerFallback(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	g := New(env, Params{PageAccess: time.Microsecond, EntryAccess: time.Microsecond})
	cpu := cpusrv.New(env, "cpu", 1, 10)
	env.Spawn("u", func(p *sim.Proc) { access(cpu, p, g.Page(), 1) })
	if err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestMetaPeekDoesNotCreate: Peek reads metadata without creating it
// (GLA migration is charged by the number of present entries).
func TestMetaPeekDoesNotCreate(t *testing.T) {
	mt := NewMetaTable()
	pg := model.PageID{File: 1, Page: 7}
	if m := mt.Peek(pg); m.Seq != 0 || m.Owner != -1 || mt.Len() != 0 {
		t.Fatalf("absent page: %+v, len %d; want a fresh slot and no entry", m, mt.Len())
	}
	mt.Of(pg).Seq = 3
	if m := mt.Peek(pg); m.Seq != 3 {
		t.Fatalf("present page: seq %d, want 3", m.Seq)
	}
	if m := mt.Peek(model.PageID{File: 1, Page: 8}); m.Seq != 0 || mt.Len() != 1 {
		t.Fatalf("absent neighbour page: %+v, len %d", m, mt.Len())
	}
}

// TestMetaTableSlotsStable: a pointer returned by Of stays the page's
// slot while later pages are added, across many slabs, and Range visits
// each present page once with that same slot.
func TestMetaTableSlotsStable(t *testing.T) {
	const n = 1000
	pages := make([]model.PageID, n)
	for i := range pages {
		pages[i] = model.PageID{File: model.FileID(1 + i%2), Page: int32(i / 2 * 3)}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	mt := NewMetaTable()
	ptrs := make([]*PageMeta, n)
	for i, pg := range pages {
		ptrs[i] = mt.Of(pg)
	}
	for i, m := range ptrs {
		m.Seq = uint64(i)
	}
	at := make(map[model.PageID]int, n)
	for i, pg := range pages {
		at[pg] = i
		if got := mt.Peek(pg).Seq; got != uint64(i) {
			t.Fatalf("Peek(%v).Seq = %d, want %d", pg, got, i)
		}
		if m := mt.Of(pg); m != ptrs[i] || m.Seq != uint64(i) {
			t.Fatalf("second Of(%v) = %p (seq %d), want %p (seq %d)", pg, m, m.Seq, ptrs[i], i)
		}
	}
	if mt.Len() != n {
		t.Fatalf("Len %d, want %d", mt.Len(), n)
	}
	mt.Range(func(pg model.PageID, m *PageMeta) {
		i, ok := at[pg]
		if !ok {
			t.Fatalf("Range visited %v twice or a page never touched", pg)
		}
		delete(at, pg)
		if m != ptrs[i] {
			t.Fatalf("Range gave %v slot %p, want %p", pg, m, ptrs[i])
		}
	})
	if len(at) != 0 {
		t.Fatalf("Range missed %d pages", len(at))
	}
}

// BenchmarkMetaTableOf looks up pages already present in the table,
// spread over a 4 M-page file as debit-credit spreads its ACCOUNT
// references. CI requires 0 allocs/op.
func BenchmarkMetaTableOf(b *testing.B) {
	const filePages, present = 4 << 20, 1 << 16
	mt := NewMetaTable()
	pages := make([]model.PageID, present)
	for i, j := range rand.New(rand.NewSource(1)).Perm(present) {
		pages[i] = model.PageID{File: 1, Page: int32(j * (filePages / present))}
		mt.Of(pages[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Of(pages[i%present]).Seq++
	}
}
