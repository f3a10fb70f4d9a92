package workload

import (
	"math"
	"testing"

	"gemsim/internal/model"
	"gemsim/internal/rng"
)

func TestDebitCreditDefaults(t *testing.T) {
	// Table 4.1: per 100 TPS, 100 branches, 1000 tellers, 10 million
	// accounts.
	p := DefaultDebitCreditParams(100)
	if p.Branches != 100 || p.TellersPerBranch != 10 || p.AccountsPerBranch != 100000 {
		t.Fatalf("params %+v", p)
	}
	if p.AccountBlocking != 10 || p.HistoryBlocking != 20 || !p.Clustered || p.LocalBranchProb != 0.85 {
		t.Fatalf("params %+v", p)
	}
	// Scaling: 10 nodes at 100 TPS each -> 1000 branches, 100 million
	// accounts.
	p10 := DefaultDebitCreditParams(1000)
	if p10.Branches != 1000 {
		t.Fatalf("scaled branches %d", p10.Branches)
	}
}

func TestDebitCreditDatabaseLayout(t *testing.T) {
	g, err := NewDebitCredit(DefaultDebitCreditParams(100))
	if err != nil {
		t.Fatal(err)
	}
	db := g.Database()
	bt := db.File(FileBranchTeller)
	if bt == nil || bt.Pages != 100 {
		t.Fatalf("B/T partition %+v", bt)
	}
	acc := db.File(FileAccount)
	if acc == nil || acc.Pages != 1000000 {
		t.Fatalf("ACCOUNT pages %d, want 1,000,000", acc.Pages)
	}
	hist := db.File(FileHistory)
	if hist == nil || !hist.AppendOnly || hist.Locking {
		t.Fatalf("HISTORY %+v", hist)
	}
	if bt.BlockingFactor != 11 {
		t.Fatalf("clustered B/T blocking factor %d (1 branch + 10 tellers)", bt.BlockingFactor)
	}
}

func TestDebitCreditTxnShape(t *testing.T) {
	g, err := NewDebitCredit(DefaultDebitCreditParams(100))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	tx := g.Next(src, 0)
	if len(tx.Refs) != 4 {
		t.Fatalf("refs %d, want 4 record accesses", len(tx.Refs))
	}
	// Order: ACCOUNT, HISTORY, TELLER, BRANCH; all writes.
	wantFiles := []model.FileID{FileAccount, FileHistory, FileBranchTeller, FileBranchTeller}
	for i, r := range tx.Refs {
		if r.Page.File != wantFiles[i] {
			t.Fatalf("ref %d file %d, want %d", i, r.Page.File, wantFiles[i])
		}
		if !r.Write {
			t.Fatalf("ref %d must be a write", i)
		}
	}
	// Clustering: teller and branch hit the same page -> 3 distinct
	// pages per transaction.
	if tx.Refs[2].Page != tx.Refs[3].Page {
		t.Fatal("teller and branch must share the clustered page")
	}
	if tx.Refs[1].Page.Page != model.AppendPage {
		t.Fatal("history ref must use the append sentinel")
	}
}

func TestDebitCredit85PercentRule(t *testing.T) {
	g, err := NewDebitCredit(DefaultDebitCreditParams(100))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2)
	local := 0
	const n = 100000
	for i := 0; i < n; i++ {
		tx := g.Next(src, 0)
		accountBranch := int(tx.Refs[0].Page.Page) * 10 / 100000
		if accountBranch == tx.Branch {
			local++
		}
	}
	p := float64(local) / n
	if math.Abs(p-0.85) > 0.01 {
		t.Fatalf("local account share %v, want ~0.85", p)
	}
}

func TestDebitCreditBranchPartitionedAccess(t *testing.T) {
	g, err := NewDebitCredit(DefaultDebitCreditParams(200))
	if err != nil {
		t.Fatal(err)
	}
	// Branch pages map 1:1, account pages partition by branch.
	for b := 0; b < 200; b++ {
		if got := g.BranchPage(b); got.Page != int32(b) {
			t.Fatalf("branch %d page %v", b, got)
		}
		pg := g.AccountPage(b, 0)
		if int(pg.Page)*10/100000 != b {
			t.Fatalf("account page %v of branch %d maps back to branch %d", pg, b, int(pg.Page)*10/100000)
		}
	}
}

func TestDebitCreditUnclustered(t *testing.T) {
	p := DefaultDebitCreditParams(100)
	p.Clustered = false
	g, err := NewDebitCredit(p)
	if err != nil {
		t.Fatal(err)
	}
	db := g.Database()
	if db.File(FileBranch) == nil || db.File(FileTeller) == nil {
		t.Fatal("unclustered layout must have separate BRANCH and TELLER files")
	}
	src := rng.New(3)
	tx := g.Next(src, 0)
	if tx.Refs[2].Page == tx.Refs[3].Page {
		t.Fatal("unclustered teller and branch must hit different pages")
	}
}

func TestDebitCreditValidation(t *testing.T) {
	bad := DefaultDebitCreditParams(100)
	bad.Branches = 0
	if _, err := NewDebitCredit(bad); err == nil {
		t.Fatal("expected error for zero branches")
	}
	bad = DefaultDebitCreditParams(100)
	bad.LocalBranchProb = 1.5
	if _, err := NewDebitCredit(bad); err == nil {
		t.Fatal("expected error for probability out of range")
	}
}

func TestSingleBranchNoForeignAccess(t *testing.T) {
	p := DefaultDebitCreditParams(1)
	g, err := NewDebitCredit(p)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	for i := 0; i < 100; i++ {
		tx := g.Next(src, 0)
		if tx.Branch != 0 {
			t.Fatal("only branch 0 exists")
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	g1, _ := NewDebitCredit(DefaultDebitCreditParams(100))
	g2, _ := NewDebitCredit(DefaultDebitCreditParams(100))
	a, b := rng.New(9), rng.New(9)
	for i := 0; i < 100; i++ {
		ta, tb := g1.Next(a, 0), g2.Next(b, 0)
		if ta.Branch != tb.Branch || ta.Refs[0].Page != tb.Refs[0].Page {
			t.Fatal("generation must be deterministic")
		}
	}
}

// TestDebitCreditPagesInBoundsProperty: generated references always lie
// within their file bounds for arbitrary valid parameters.
func TestDebitCreditPagesInBoundsProperty(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		p := DebitCreditParams{
			Branches:          1 + src.Intn(500),
			TellersPerBranch:  1 + src.Intn(20),
			AccountsPerBranch: 10 + src.Intn(5000),
			AccountBlocking:   1 + src.Intn(20),
			HistoryBlocking:   1 + src.Intn(40),
			Clustered:         src.Bool(0.5),
			LocalBranchProb:   src.Float64(),
		}
		g, err := NewDebitCredit(p)
		if err != nil {
			t.Fatalf("trial %d: %v (params %+v)", trial, err, p)
		}
		db := g.Database()
		for i := 0; i < 200; i++ {
			tx := g.Next(src, 0)
			if tx.Branch < 0 || tx.Branch >= p.Branches {
				t.Fatalf("branch %d out of range", tx.Branch)
			}
			for _, r := range tx.Refs {
				f := db.File(r.Page.File)
				if f == nil {
					t.Fatalf("unknown file %d", r.Page.File)
				}
				if f.AppendOnly {
					if r.Page.Page != model.AppendPage {
						t.Fatalf("append file with page %d", r.Page.Page)
					}
					continue
				}
				if r.Page.Page < 0 || r.Page.Page >= f.Pages {
					t.Fatalf("page %v outside file %q (%d pages)", r.Page, f.Name, f.Pages)
				}
			}
		}
	}
}
