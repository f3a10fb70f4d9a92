package node

import (
	"testing"
	"time"

	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/sim"
)

// TestStaleReplyIsDropped gives up a wait (a lock-wait timeout, or the
// kill of a crash: both end the wait the same way), hands its recycled
// record to a second waiter, and then delivers a late grant carrying
// the first wait's epoch. The grant must be dropped: the second waiter
// resumes only at its own timer, with no reply. A grant carrying the
// current epoch still wakes it.
func TestStaleReplyIsDropped(t *testing.T) {
	for _, cause := range []string{"timeout", "kill"} {
		t.Run(cause, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Stop()
			sys, err := NewSystem(env, testParams(2, CouplingPCL, false), &scriptGen{db: testDB()}, typeRouter{2}, modGLA{2})
			if err != nil {
				t.Fatal(err)
			}
			const patience = 10 * time.Millisecond
			var (
				stale, current waitRef
				resumed        sim.Time
				reply          *message
			)
			env.Spawn("first", func(p *sim.Proc) {
				w := sys.newWait(p)
				stale = waitRef{w: w, epoch: w.epoch}
				if cause == "timeout" {
					p.UnparkAfter(time.Millisecond)
				} else {
					env.After(time.Millisecond, p.Unpark) // the crash sweep's wake
				}
				p.Park()
				sys.endWait(w)
				env.Spawn("second", func(q *sim.Proc) {
					w2 := sys.newWait(q)
					if w2 != stale.w {
						t.Error("the ended wait's record was not recycled")
					}
					q.UnparkAfter(patience)
					q.Park()
					resumed, reply = env.Now(), w2.reply
					sys.endWait(w2)
				})
				late := sys.newMsg(msgLockGrant)
				late.wait = stale
				sys.net.Send(p, 1, 0, netsim.Short, late)
			})
			if err := env.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			if want := time.Millisecond + patience; resumed != want || reply != nil {
				t.Fatalf("second waiter resumed at %v with reply %v, want %v and none: the stale grant woke it", resumed, reply, want)
			}

			// A grant with the live epoch is delivered.
			env.Spawn("third", func(p *sim.Proc) {
				w := sys.newWait(p)
				current = waitRef{w: w, epoch: w.epoch}
				env.Spawn("granter", func(q *sim.Proc) {
					m := sys.newMsg(msgLockGrant)
					m.wait, m.seq = current, 7
					sys.net.Send(q, 1, 0, netsim.Short, m)
				})
				p.Park()
				if w.reply == nil || w.reply.seq != 7 {
					t.Error("a grant with the live epoch was not delivered")
				}
				sys.endWait(w)
			})
			if err := env.Run(2 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStaleLockWakeIsDropped covers the lock-queue side of the
// generation rule: a granted request whose waiter has given up must
// not resume the process that now holds its recycled wait record.
func TestStaleLockWakeIsDropped(t *testing.T) {
	env := sim.NewEnv()
	defer env.Stop()
	sys, err := NewSystem(env, testParams(2, CouplingPCL, false), &scriptGen{db: testDB()}, typeRouter{2}, modGLA{2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := lock.NewTable("t")
	page := model.PageID{File: 1, Page: 1}
	holder, waiter := lock.Owner{Node: 0, Tx: 1}, lock.Owner{Node: 0, Tx: 2}
	tbl.Request(page, holder, model.LockWrite, nil)
	var resumed sim.Time
	env.Spawn("waiter", func(p *sim.Proc) {
		req, granted := tbl.Request(page, waiter, model.LockWrite, nil)
		if granted {
			t.Fatal("conflicting request granted")
		}
		w := sys.newWait(p)
		req.Data, req.Epoch = w, w.epoch
		p.UnparkAfter(time.Millisecond) // gives up
		p.Park()
		sys.endWait(w)
		env.Spawn("next", func(q *sim.Proc) {
			if sys.newWait(q) != w {
				t.Error("the ended wait's record was not recycled")
			}
			// The holder releases: the queued request is granted late.
			for _, g := range tbl.Release(page, holder) {
				if d := sys.answerOne(g, 0); d != nil {
					t.Error("a local request answered as a remote one")
				}
			}
			q.UnparkAfter(time.Second)
			q.Park()
			resumed = env.Now()
		})
	})
	if err := env.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if want := time.Millisecond + time.Second; resumed != want {
		t.Fatalf("next waiter resumed at %v, want %v: the stale grant woke it", resumed, want)
	}
}
