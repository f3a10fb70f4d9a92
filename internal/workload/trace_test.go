package workload

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"gemsim/internal/model"
	"gemsim/internal/rng"
)

func smallTraceParams() TraceGenParams {
	p := DefaultTraceGenParams(11)
	p.Transactions = 2000
	p.TotalPages = 8000
	p.AdHocTxns = 2
	p.LargestRefs = 1500
	return p
}

func TestGenerateTraceCalibration(t *testing.T) {
	// The full-size trace must match the paper's published statistics.
	trace, err := GenerateTrace(DefaultTraceGenParams(1))
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Stats()
	t.Logf("stats: %+v", s)
	if s.Transactions < 17500 {
		t.Errorf("transactions %d, want > 17500", s.Transactions)
	}
	if s.Types != 12 {
		t.Errorf("types %d, want 12", s.Types)
	}
	if s.Files != 13 {
		t.Errorf("files %d, want 13", s.Files)
	}
	if s.References < 900000 || s.References > 1100000 {
		t.Errorf("references %d, want ~1 million", s.References)
	}
	if s.LargestTxn < 11000 {
		t.Errorf("largest transaction %d, want > 11000", s.LargestTxn)
	}
	writeFrac := float64(s.Writes) / float64(s.References)
	if math.Abs(writeFrac-0.016) > 0.004 {
		t.Errorf("write fraction %v, want ~1.6%%", writeFrac)
	}
	updateFrac := float64(s.UpdateTxns) / float64(s.Transactions)
	if math.Abs(updateFrac-0.20) > 0.02 {
		t.Errorf("update txn fraction %v, want ~20%%", updateFrac)
	}
	if s.DistinctPages < 30000 || s.DistinctPages > 66000 {
		t.Errorf("distinct pages %d, want a large referenced set (30k-66k)", s.DistinctPages)
	}
	if math.Abs(s.MeanRefs-57) > 6 {
		t.Errorf("mean refs %v, want ~57", s.MeanRefs)
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	p := smallTraceParams()
	a, err := GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Txns) != len(b.Txns) {
		t.Fatal("lengths differ")
	}
	for i := range a.Txns {
		if a.Txns[i].Type != b.Txns[i].Type || len(a.Txns[i].Refs) != len(b.Txns[i].Refs) {
			t.Fatalf("trace diverged at txn %d", i)
		}
	}
}

func TestGenerateTraceSkew(t *testing.T) {
	trace, err := GenerateTrace(smallTraceParams())
	if err != nil {
		t.Fatal(err)
	}
	// Non-uniform access: the hottest 10% of referenced pages must
	// attract far more than 10% of references.
	counts := make(map[model.PageID]int64)
	var total int64
	for i := range trace.Txns {
		for _, r := range trace.Txns[i].Refs {
			counts[r.Page]++
			total++
		}
	}
	all := make([]int64, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	// Partial selection: top decile sum.
	sortDesc(all)
	var top int64
	for i := 0; i < len(all)/10; i++ {
		top += all[i]
	}
	share := float64(top) / float64(total)
	if share < 0.3 {
		t.Fatalf("top-decile share %v, want > 0.3 (highly non-uniform)", share)
	}
}

func sortDesc(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] > a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	trace, err := GenerateTrace(smallTraceParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Types != trace.Types || len(got.Files) != len(trace.Files) || len(got.Txns) != len(trace.Txns) {
		t.Fatal("header mismatch after round trip")
	}
	for i := range trace.Txns {
		a, b := &trace.Txns[i], &got.Txns[i]
		if a.Type != b.Type || len(a.Refs) != len(b.Refs) {
			t.Fatalf("txn %d mismatch", i)
		}
		for j := range a.Refs {
			if a.Refs[j] != b.Refs[j] {
				t.Fatalf("txn %d ref %d mismatch: %+v vs %+v", i, j, a.Refs[j], b.Refs[j])
			}
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	trace, err := GenerateTrace(smallTraceParams())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.trc")
	if err := trace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Txns) != len(trace.Txns) {
		t.Fatal("file round trip lost transactions")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not a trace file at all")); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestTraceValidateCatchesBadRefs(t *testing.T) {
	trace := &Trace{
		Types: 1,
		Files: []model.File{{ID: 0, Name: "F", Pages: 10, BlockingFactor: 1, Locking: true, Medium: model.MediumDisk}},
		Txns:  []model.Txn{{Type: 0, Refs: []model.Ref{{Page: model.PageID{File: 0, Page: 99}}}}},
	}
	if err := trace.Validate(); err == nil {
		t.Fatal("expected out-of-range page error")
	}
	trace.Txns[0].Refs[0].Page = model.PageID{File: 5, Page: 0}
	if err := trace.Validate(); err == nil {
		t.Fatal("expected unknown file error")
	}
	trace.Txns[0] = model.Txn{Type: 7, Refs: nil}
	if err := trace.Validate(); err == nil {
		t.Fatal("expected bad type error")
	}
}

func TestTraceReplayerWraps(t *testing.T) {
	trace, err := GenerateTrace(smallTraceParams())
	if err != nil {
		t.Fatal(err)
	}
	r := NewTraceReplayer(trace)
	src := rng.New(1)
	first := r.Next(src, 0)
	for i := 1; i < len(trace.Txns); i++ {
		r.Next(src, 0)
	}
	again := r.Next(src, 0)
	if first.Type != again.Type || len(first.Refs) != len(again.Refs) {
		t.Fatal("replayer must wrap to the first transaction")
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	p := smallTraceParams()
	p.Transactions = 0
	if _, err := GenerateTrace(p); err == nil {
		t.Fatal("expected error for zero transactions")
	}
	p = smallTraceParams()
	p.AdHocTxns = p.Transactions + 1
	if _, err := GenerateTrace(p); err == nil {
		t.Fatal("expected error for too many ad-hoc txns")
	}
	// Three files are all scan files: an update would have no file to
	// go to (a division by zero before it was rejected).
	for files := 1; files <= 3; files++ {
		p = smallTraceParams()
		p.Files = files
		if _, err := GenerateTrace(p); err == nil {
			t.Fatalf("expected error for %d files", files)
		}
	}
	// Too few pages leave a file empty (an empty Zipf sampler).
	p = smallTraceParams()
	p.TotalPages = minFilePages*p.Files - 1
	if _, err := GenerateTrace(p); err == nil {
		t.Fatal("expected error for too few pages")
	}
}
