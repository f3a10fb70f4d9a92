package trace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gemsim/internal/attrib"
	"gemsim/internal/cc"
)

// Kind names one declared span or instant: a row of Schema. The
// tracer writes a row's category and name, so an undeclared event
// cannot be emitted, and traceview -validate checks traces against the
// same rows.
type Kind uint8

// Event is one schema row: the phase ('X' span, 'i' instant), category
// and name written for a Kind, and the check of its argument when the
// argument has a closed format (nil: free-form).
type Event struct {
	Ph   byte
	Cat  string
	Name string
	Arg  func(string) error
}

// Schema is the complete span and instant vocabulary, indexed by Kind.
// The declarations below fill it in order; it is read-only after
// package initialization.
var Schema []Event

func declare(ph byte, cat, name string, arg func(string) error) Kind {
	Schema = append(Schema, Event{ph, cat, name, arg})
	return Kind(len(Schema) - 1)
}

// abortReasons are the txn/abort arguments.
var abortReasons = append([]cc.Reason{AbortDeadlock, AbortTimeout}, cc.Reasons...)

// The rows, by category; DESIGN.md §8 describes each one.
var (
	// A committed attempt, arrival to commit; a restarted attempt.
	TxnSpan  = declare('X', "txn", "txn", intArg("type"))
	TxnAbort = declare('i', "txn", "abort", oneOf(abortReasons...))
	// A lock conflict wait; a remote PCL lock request round trip.
	LockWait   = declare('X', "lock", "wait", nil)
	LockRemote = declare('X', "lock", "remote", nil)
	// Optimistic engines: validation, remote metadata round trips
	// (PCL), and engine-initiated conflicts.
	CCValidate = declare('X', "cc", "cc-validate", oneOf(ValidateOK, ValidateConflict))
	CCRemote   = declare('X', "cc", "cc-remote", nil)
	CCAbort    = declare('i', "cc", "cc-abort", oneOf(cc.Reasons...))
	// Service stations: a CPU burst, GEM page and entry accesses, a
	// batch of lock-engine operations, disk reads and writes (the -hit
	// rows are served by a disk cache).
	CPUExec       = declare('X', "cpu", "exec", nil)
	GEMPage       = declare('X', "gem", "page", nil)
	GEMEntries    = declare('X', "gem", "entries", intArg("n"))
	LockEngineOps = declare('X', "lockengine", "ops", intArg("n"))
	IORead        = declare('X', "io", "read", nil)
	IOWrite       = declare('X', "io", "write", nil)
	IOReadHit     = declare('X', "io", "read-hit", nil)
	IOWriteHit    = declare('X', "io", "write-hit", nil)
	// Messages on the wire, lost on the wire, dropped at a down node.
	NetShort    = declare('X', "net", "short", nil)
	NetLong     = declare('X', "net", "long", nil)
	NetDrop     = declare('i', "net", "drop", nil)
	NetDropDown = declare('i', "net", "drop-down", nil)
	// Adaptive control: MPL cuts and raises, branch moves, GLA
	// partition handoffs and home changes.
	ControlThrottle   = declare('i', "control", "throttle", nil)
	ControlProbe      = declare('i', "control", "probe", nil)
	ControlReroute    = declare('i', "control", "reroute", nil)
	ControlGLAMigrate = declare('X', "control", "gla-migrate", nil)
	ControlMigrate    = declare('i', "control", "migrate", nil)
	// Node crashes and repairs, and the phases of crash recovery.
	FaultCrash           = declare('i', "fault", "crash", intArg("node"))
	FaultRepair          = declare('i', "fault", "repair", intArg("node"))
	RecoveryDetect       = declare('X', "recovery", "detect", intArg("node"))
	RecoveryLockRecovery = declare('X', "recovery", "lock-recovery", intArg("node"))
	RecoveryLogScan      = declare('X', "recovery", "log-scan", intArg("node"))
	RecoveryReplay       = declare('X', "recovery", "replay", intArg("node"))
	RecoveryReopen       = declare('X', "recovery", "reopen", intArg("node"))
	RecoveryPageRepair   = declare('X', "recovery", "page-repair", nil)
	RecoveryRecovered    = declare('i', "recovery", "recovered", intArg("node"))
	// Attribution: a committed transaction's critical-path vector, a
	// station's windowed operational laws, a wait-for graph snapshot.
	AttribTxnPath = declare('i', "attrib", "txnpath", decodes(attrib.DecodeArg))
	AttribStation = declare('i', "attrib", "station", decodes(attrib.DecodeLaws))
	AttribWaitFor = declare('i', "attrib", "waitfor", decodes(attrib.DecodeWaitFor))
)

// Closed argument values the emitters write besides the cc.Reason
// values; txn/abort accepts both.
const (
	AbortDeadlock    = "deadlock" // txn/abort of a deadlock victim
	AbortTimeout     = "timeout"  // txn/abort after a lock-wait timeout
	ValidateOK       = "ok"       // cc/cc-validate that passed
	ValidateConflict = "conflict" // cc/cc-validate that found a conflict
)

// Check validates one span or instant of a trace against the schema:
// the category and name must be declared, with this phase, and the
// argument must pass the row's check.
func Check(ph, cat, name, arg string) error {
	for _, e := range Schema {
		if e.Cat != cat || e.Name != name {
			continue
		}
		if ph != string(e.Ph) {
			return fmt.Errorf("%s/%s has phase %q, declared %q", cat, name, ph, string(e.Ph))
		}
		if e.Arg != nil {
			if err := e.Arg(arg); err != nil {
				return fmt.Errorf("%s/%s arg: %v", cat, name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("undeclared event %s/%s", cat, name)
}

func intArg(key string) func(string) error {
	return func(s string) error {
		v, ok := strings.CutPrefix(s, key+"=")
		if _, err := strconv.Atoi(v); !ok || err != nil {
			return fmt.Errorf("%q is not %s=<int>", s, key)
		}
		return nil
	}
}

func oneOf[T ~string](vals ...T) func(string) error {
	return func(s string) error {
		if !slices.Contains(vals, T(s)) {
			return fmt.Errorf("%q is not one of %v", s, vals)
		}
		return nil
	}
}

func decodes[T any](decode func(string) (T, error)) func(string) error {
	return func(s string) error {
		_, err := decode(s)
		return err
	}
}
