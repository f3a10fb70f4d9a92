package workload

import (
	"fmt"
	"time"

	"gemsim/internal/model"
	"gemsim/internal/rng"
)

// DebitCreditParams configures the debit-credit workload. The defaults
// follow Table 4.1: per 100 TPS the database holds 100 BRANCH records
// (blocking factor 1), 1000 TELLER records (blocking factor 10,
// clustered with BRANCH), 10 million ACCOUNT records (blocking factor
// 10), and a sequentially appended HISTORY file (blocking factor 20).
type DebitCreditParams struct {
	// Branches is the total number of branches; the TPC scaling rule
	// requires 100 branches per 100 TPS of configured throughput.
	Branches int
	// TellersPerBranch is the number of tellers per branch (10).
	TellersPerBranch int
	// AccountsPerBranch is the number of accounts per branch (100000).
	AccountsPerBranch int
	// AccountBlocking is the ACCOUNT blocking factor (10).
	AccountBlocking int
	// HistoryBlocking is the HISTORY blocking factor (20).
	HistoryBlocking int
	// Clustered stores TELLER records in their branch's page,
	// reducing the pages accessed per transaction to three.
	Clustered bool
	// LocalBranchProb is the probability that the accessed account
	// belongs to the transaction's branch (0.85 per TPC).
	LocalBranchProb float64
	// Skew optionally makes the reference string non-uniform (Zipf
	// branch/account selection, hot-spot sets, drift). Nil keeps the
	// uniform Table 4.1 behaviour, draw for draw.
	Skew *Skew
}

// DefaultDebitCreditParams returns the Table 4.1 settings for the given
// aggregate transaction rate in TPS (database size scales with load).
func DefaultDebitCreditParams(totalTPS float64) DebitCreditParams {
	branches := int(totalTPS + 0.5)
	if branches < 1 {
		branches = 1
	}
	return DebitCreditParams{
		Branches:          branches,
		TellersPerBranch:  10,
		AccountsPerBranch: 100000,
		AccountBlocking:   10,
		HistoryBlocking:   20,
		Clustered:         true,
		LocalBranchProb:   0.85,
	}
}

// DebitCredit generates debit-credit transactions.
type DebitCredit struct {
	params DebitCreditParams
	db     model.Database
	skew   *skewState // nil when the reference string is uniform
}

var _ Generator = (*DebitCredit)(nil)

// NewDebitCredit builds a generator for the given parameters.
func NewDebitCredit(params DebitCreditParams) (*DebitCredit, error) {
	if params.Branches <= 0 {
		return nil, fmt.Errorf("workload: need at least one branch, got %d", params.Branches)
	}
	if params.TellersPerBranch <= 0 || params.AccountsPerBranch <= 0 {
		return nil, fmt.Errorf("workload: tellers and accounts per branch must be positive")
	}
	if params.AccountBlocking <= 0 || params.HistoryBlocking <= 0 {
		return nil, fmt.Errorf("workload: blocking factors must be positive")
	}
	if params.LocalBranchProb < 0 || params.LocalBranchProb > 1 {
		return nil, fmt.Errorf("workload: local branch probability %v out of range", params.LocalBranchProb)
	}
	if err := params.Skew.Validate(); err != nil {
		return nil, err
	}
	g := &DebitCredit{params: params}
	if params.Skew.Enabled() {
		g.skew = newSkewState(params.Skew, params.Branches, params.AccountsPerBranch)
	}
	accountPages := int32((params.Branches*params.AccountsPerBranch + params.AccountBlocking - 1) / params.AccountBlocking)
	if params.Clustered {
		g.db.Files = []model.File{
			{
				ID: FileBranchTeller, Name: "BRANCH/TELLER",
				Pages:          int32(params.Branches),
				BlockingFactor: 1 + params.TellersPerBranch,
				Locking:        true, Medium: model.MediumDisk,
			},
			{
				ID: FileAccount, Name: "ACCOUNT",
				Pages:          accountPages,
				BlockingFactor: params.AccountBlocking,
				Locking:        true, Medium: model.MediumDisk,
			},
			{
				ID: FileHistory, Name: "HISTORY",
				BlockingFactor: params.HistoryBlocking,
				Locking:        false, AppendOnly: true, Medium: model.MediumDisk,
			},
		}
	} else {
		tellerPages := int32((params.Branches*params.TellersPerBranch + 9) / 10)
		g.db.Files = []model.File{
			{ID: FileBranch, Name: "BRANCH", Pages: int32(params.Branches), BlockingFactor: 1,
				Locking: true, Medium: model.MediumDisk},
			{ID: FileTeller, Name: "TELLER", Pages: tellerPages, BlockingFactor: 10,
				Locking: true, Medium: model.MediumDisk},
			{ID: FileAccount, Name: "ACCOUNT", Pages: accountPages, BlockingFactor: params.AccountBlocking,
				Locking: true, Medium: model.MediumDisk},
			{ID: FileHistory, Name: "HISTORY", BlockingFactor: params.HistoryBlocking,
				Locking: false, AppendOnly: true, Medium: model.MediumDisk},
		}
	}
	if err := g.db.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Params returns the generator's configuration.
func (g *DebitCredit) Params() DebitCreditParams { return g.params }

// Database returns the debit-credit database description.
func (g *DebitCredit) Database() *model.Database { return &g.db }

// AccountPage returns the page holding the given account of a branch.
func (g *DebitCredit) AccountPage(branch, account int) model.PageID {
	idx := branch*g.params.AccountsPerBranch + account
	return model.PageID{File: FileAccount, Page: int32(idx / g.params.AccountBlocking)}
}

// BranchPage returns the page of a branch record (the clustered
// BRANCH/TELLER page when clustering is on).
func (g *DebitCredit) BranchPage(branch int) model.PageID {
	if g.params.Clustered {
		return model.PageID{File: FileBranchTeller, Page: int32(branch)}
	}
	return model.PageID{File: FileBranch, Page: int32(branch)}
}

// TellerPage returns the page of a teller record of a branch.
func (g *DebitCredit) TellerPage(branch, teller int) model.PageID {
	if g.params.Clustered {
		return model.PageID{File: FileBranchTeller, Page: int32(branch)}
	}
	idx := branch*g.params.TellersPerBranch + teller
	return model.PageID{File: FileTeller, Page: int32(idx / 10)}
}

// HotPage reports whether a page belongs to the workload's hot set at
// simulated time at: the branch, teller and account pages of the
// hot-spot branches (rotation-aware under drift). Without an explicit
// hot-spot set (HotFraction/HotProb) every page is cold — a pure-Zipf
// reference string has no crisp hot/cold boundary to classify against.
// The hybrid concurrency-control engine uses this to route hot pages
// through locking and the cold tail through optimistic validation.
func (g *DebitCredit) HotPage(page model.PageID, at time.Duration) bool {
	if g.skew == nil || g.skew.hotN == 0 {
		return false
	}
	var branch int
	switch page.File {
	case FileBranchTeller, FileBranch:
		branch = int(page.Page)
	case FileTeller:
		branch = int(page.Page) * 10 / g.params.TellersPerBranch
	case FileAccount:
		branch = int(page.Page) * g.params.AccountBlocking / g.params.AccountsPerBranch
	default:
		return false
	}
	if branch >= g.params.Branches {
		return false
	}
	rot := g.skew.rotation(at)
	rank := (branch - rot + g.params.Branches) % g.params.Branches
	return rank < g.skew.hotN
}

// Next generates one debit-credit transaction submitted at simulated
// time at. The reference order is fixed (ACCOUNT, HISTORY, TELLER,
// BRANCH) so that no deadlocks can occur and locks on the small hot
// records are held shortest. The time only matters under a drift
// schedule, which rotates the hot branch set as the run progresses;
// without skew the draw sequence is identical to the uniform
// generator's.
func (g *DebitCredit) Next(src *rng.Source, at time.Duration) model.Txn {
	var branch int
	if g.skew != nil {
		branch = g.skew.branchAt(src, at)
	} else {
		branch = src.Intn(g.params.Branches)
	}
	teller := src.Intn(g.params.TellersPerBranch)
	accountBranch := branch
	if g.params.Branches > 1 && !src.Bool(g.params.LocalBranchProb) {
		accountBranch = src.Intn(g.params.Branches - 1)
		if accountBranch >= branch {
			accountBranch++
		}
	}
	var account int
	if g.skew != nil {
		account = g.skew.account(src, g.params.AccountsPerBranch)
	} else {
		account = src.Intn(g.params.AccountsPerBranch)
	}

	refs := []model.Ref{
		{Page: g.AccountPage(accountBranch, account), Write: true},
		{Page: model.PageID{File: FileHistory, Page: model.AppendPage}, Write: true},
		{Page: g.TellerPage(branch, teller), Write: true},
		{Page: g.BranchPage(branch), Write: true},
	}
	return model.Txn{Branch: branch, Refs: refs}
}
