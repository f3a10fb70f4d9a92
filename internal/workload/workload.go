// Package workload provides the two workload types of the study: the
// synthetically generated debit-credit (TPC-A/B style) transaction load
// and trace-driven workloads, including a calibrated synthetic generator
// standing in for the paper's proprietary database trace.
package workload

import (
	"time"

	"gemsim/internal/model"
	"gemsim/internal/rng"
)

// Generator produces the transaction stream of a workload.
type Generator interface {
	// Next returns the next transaction to submit at simulated time at.
	// The time matters only to generators whose reference behaviour
	// drifts (debit-credit hot sets under a drift schedule); others
	// ignore it.
	Next(src *rng.Source, at time.Duration) model.Txn
	// Database describes the files the workload references.
	Database() *model.Database
}

// File identifiers of the debit-credit database. The clustered layout
// stores BRANCH and TELLER records in one partition (a branch page holds
// the branch record and its tellers), reducing page accesses per
// transaction to three.
const (
	FileBranchTeller model.FileID = 1 // clustered BRANCH+TELLER partition
	FileAccount      model.FileID = 2
	FileHistory      model.FileID = 3
	FileBranch       model.FileID = 4 // used when clustering is off
	FileTeller       model.FileID = 5 // used when clustering is off
)
