package node

import (
	"fmt"

	"gemsim/internal/netsim"
	"gemsim/internal/sim"
)

// handleMessage dispatches an arriving message after the receive CPU
// overhead was charged by the communication subsystem. It runs on the
// kernel's callback tier: handlers mutate local state, wake a waiter,
// or send on as a CPU-held chain (message.send, message.walk). A
// request's record is routed back to the sender as the short reply by
// default. A reply whose wait has ended is dropped.
func (n *Node) handleMessage(from int, msg any) {
	m := msg.(*message)
	m.at, m.to, m.class = n.id, from, netsim.Short
	sys := n.sys
	switch m.kind {
	case msgLockRequest:
		n.handleLockRequest(m)
		return // the record lives on as the grant
	case msgLockRelease:
		m.walk()
		return // the walk frees the record
	case msgCCOp:
		n.handleCCOp(m)
		return // the record lives on as the acknowledgement
	case msgCCPublish:
		n.handleCCPublish(m)
	case msgLockCancel:
		// Cost model only (see msgLockCancel).
	case msgPageRequest:
		n.handlePageRequest(m)
		return // the record lives on as the reply
	case msgRebuildQuery:
		// Cost model only: the survivors' lock state was captured
		// synchronously when the failure was detected; the round trip
		// charges the communication work of the partition rebuild.
		m.kind, m.reliable = msgRebuildReply, true
		m.send()
		return
	case msgRevokeRA:
		sys.setRABit(m.slot, sys.raWords, n.id, false)
	case msgGLAHandoff:
		n.handleGLAHandoff(m)
		return // freed, or the record lives on as the acknowledgement
	case msgInvalidate:
		n.handleInvalidate(m)
		return // the record lives on as the acknowledgement
	case msgLockGrant, msgCCOpAck, msgPageReply, msgWakeup, msgGLAHandoffAck:
		if w := m.wait.live(); w != nil {
			w.reply = m
			w.proc.Unpark()
			return // the waiter frees the record with its wait
		}
	case msgRebuildReply, msgInvalidateAck:
		if w := m.wait.live(); w != nil {
			if w.acks++; w.acks >= w.needed {
				w.proc.Unpark()
			}
		}
	default:
		panic(fmt.Sprintf("node %d: unknown message kind %d from %d", n.id, m.kind, from))
	}
	sys.freeMsg(m)
}

// handlePageRequest serves a page request from another node: if this
// node still buffers the page (possibly under replacement write-back),
// the page is returned in a long message — or, with GEM page transfer
// enabled, deposited in GEM and acknowledged with a short message.
func (n *Node) handlePageRequest(m *message) {
	m.kind = msgPageReply
	if fr := n.pool.Get(m.slot); fr != nil {
		m.found, m.seq = true, fr.SeqNo
	} else if seq, ok := n.inflight[m.slot]; ok {
		m.found, m.seq = true, seq
	}
	if m.found {
		if n.sys.params.GEMPageTransfer {
			// Deposit the page in GEM; the requester reads it from
			// there (synchronous page accesses on both sides).
			n.cpu.Hold(sim.Continuation{}, n.sys.params.GEMIOInstr, n.sys.gemDev.Page(), 1, m.sendFn)
			return
		}
		m.class = netsim.Long
	}
	m.send()
}
