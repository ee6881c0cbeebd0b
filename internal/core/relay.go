package core

import (
	"fmt"

	"cruz/internal/ctl"
	"cruz/internal/trace"
)

// Group-leader relay: the agent-side half of hierarchical coordination.
//
// Under the two-level tree the root sends one <checkpoint> (or
// <restart>) per group to its deterministic leader, with Job set and the
// group's relay list. The leader relays the per-pod message to every
// group member — its own pods locally, the rest over agent-to-agent
// connections — and batches the members' replies, answering the root
// with one reply of the members' own type per protocol phase. The 2PC
// decision logic stays entirely at the root, which keeps commit/abort
// semantics identical to the flat fan-out: the leader forwards the first
// member error immediately, and the root's abort fan-out still reaches
// every member directly (plus an <abort> for the job per leader so the
// relay state closes).

// relayKey is the leader's op-table key for a job's relay. The "grelay/"
// prefix keeps it clear of pod names and replication keys.
func relayKey(job string) string { return "grelay/" + job }

// relayOp tracks one group's relay on the leader: the wait-sets mirror
// the coordinator's ("disabled", "done", "cont" per member pod), and
// each set's batch of reports accumulates in member-reply order
// (deterministic under the simulation's total event order).
type relayOp struct {
	*ctl.Op
	job     string
	up      msgSink // toward the root
	members []GroupMember
	restart bool
	batches map[string][]GroupReport // by wait-set

	span trace.Span
}

// localSink routes a leader-local member's replies into the relay
// aggregation. The hop charges one daemon-CPU message cost — the
// leader's receive processing — but no wire time: leader and member
// share a node, so the reply is local IPC.
type localSink struct{ a *Agent }

func (s localSink) send(m *wireMsg) error {
	a := s.a
	a.cpu.Do(a.params.MsgCost, func() { a.relayMemberMsg(m) })
	return nil
}

// relayFor finds the active relay op covering (pod, seq), or nil.
// Table iteration is key-sorted, so resolution is deterministic.
func (a *Agent) relayFor(pod string, seq int) *relayOp {
	var found *relayOp
	a.table.Each(func(o *ctl.Op) {
		if found != nil || o.Seq != seq {
			return
		}
		rop, ok := o.Data.(*relayOp)
		if !ok {
			return
		}
		for _, g := range rop.members {
			if g.Pod == pod {
				found = rop
				return
			}
		}
	})
	return found
}

// relayRequest handles a root request addressed to this node as its
// group's leader (Job set): a checkpoint or restart starts the relay, a
// continue fans down to the group, an abort closes the relay.
func (a *Agent) relayRequest(c *ctlConn, m *wireMsg) {
	if m.Type == msgCheckpoint || m.Type == msgRestart {
		a.startRelay(c, m)
		return
	}
	o := a.table.Get(relayKey(m.Job))
	if o == nil || o.Seq != m.Seq {
		return
	}
	rop, ok := o.Data.(*relayOp)
	if !ok {
		return
	}
	switch m.Type {
	case msgContinue:
		for _, g := range rop.members {
			a.relaySend(rop, g, &wireMsg{Type: msgContinue, Seq: m.Seq, Pod: g.Pod, ctx: rop.span.Context()})
		}
	case msgAbort:
		// The members' own rollbacks are driven by the root's direct
		// <abort>s; the leader only has batching state to discard.
		rop.Fail(ErrAborted)
	}
}

// startRelay begins the relay op for a <checkpoint>/<restart>, opens its
// span under the root's context, and fans the per-pod message down to
// every member.
func (a *Agent) startRelay(c *ctlConn, m *wireMsg) {
	restart := m.Type == msgRestart
	o, err := a.table.Begin("grelay", relayKey(m.Job), m.Seq)
	if err != nil {
		c.send(&wireMsg{Type: doneType(restart), Job: m.Job, Seq: m.Seq, Err: ErrBusy.Error(), ctx: m.ctx})
		return
	}
	rop := &relayOp{Op: o, job: m.Job, up: c, members: m.Group, restart: restart, batches: make(map[string][]GroupReport)}
	o.Data = rop
	if a.tr.Enabled() {
		kind := "relay.checkpoint"
		if restart {
			kind = "relay.restart"
		}
		// The relay span is the extra hop of the tree: it nests under the
		// root op span and parents every member's agent span, so the
		// critical path still tiles the root.
		rop.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", kind,
			trace.Str("job", m.Job), trace.Int("seq", int64(m.Seq)),
			trace.Int("members", int64(len(m.Group))))
	}
	// The span ends exactly once, on completion or failure; the op's
	// removal from the table is what stops further member replies from
	// touching it.
	o.OnFinish(func(_ *ctl.Op, err error) {
		if err != nil {
			rop.span.End(trace.Str("outcome", "aborted"))
			return
		}
		rop.span.End()
	})

	for _, g := range m.Group {
		rop.Expect("done", g.Pod)
		rop.Expect("cont", g.Pod)
		if !restart {
			rop.Expect("disabled", g.Pod)
		}
	}

	// Fan down. The relayed message is the flat protocol's, verbatim,
	// addressed to one pod and with the relay span as its context —
	// members cannot tell a leader from the root.
	for _, g := range m.Group {
		mm := *m
		mm.Pod = g.Pod
		mm.Job = ""
		mm.Group = nil
		mm.ctx = rop.span.Context()
		a.relaySend(rop, g, &mm)
	}
}

// doneType is the reply type of a checkpoint's or a restart's done vote.
func doneType(restart bool) msgType {
	if restart {
		return msgRestartDone
	}
	return msgDone
}

// relaySend delivers one relayed message to a member: leader-local pods
// dispatch on this agent directly (one message cost, no wire), remote
// members go over a peer connection (one send cost; the member's own
// receive cost is charged by its onMsg).
func (a *Agent) relaySend(rop *relayOp, g GroupMember, mm *wireMsg) {
	if g.addrPort() == a.Addr() {
		a.cpu.Do(a.params.MsgCost, func() {
			if rop.Aborted() {
				return
			}
			switch mm.Type {
			case msgCheckpoint:
				a.startCheckpoint(localSink{a}, mm)
			case msgRestart:
				a.startRestart(localSink{a}, mm)
			case msgContinue:
				a.handleContinue(localSink{a}, mm)
			}
		})
		return
	}
	a.cpu.Do(a.params.MsgCost, func() {
		if rop.Aborted() {
			return
		}
		cc, err := a.peerConn(g.addrPort())
		if err != nil {
			a.relayMemberFail(rop, g.Pod, err)
			return
		}
		cc.send(mm)
	})
}

// relayMemberFail forwards a member failure to the root and closes the
// relay. The root fails the whole op and aborts every member directly —
// exactly the flat protocol's abort semantics, one hop later.
func (a *Agent) relayMemberFail(rop *relayOp, pod string, err error) {
	if !rop.Active() {
		return
	}
	rop.up.send(&wireMsg{
		Type: doneType(rop.restart), Job: rop.job, Seq: rop.Seq, Pod: pod,
		Err: err.Error(), ctx: rop.span.Context(),
	})
	rop.Fail(fmt.Errorf("%w: pod %s: %v", ErrAgentFailed, pod, err))
}

// relayMemberMsg aggregates one member reply. Remote members' replies
// arrive through onMsg; leader-local ones through localSink. Replies
// for which no relay is active (late arrivals after an abort) are
// dropped, as the root drops strays.
func (a *Agent) relayMemberMsg(m *wireMsg) {
	rop := a.relayFor(m.Pod, m.Seq)
	if rop == nil {
		return
	}
	if m.Type == msgHolding {
		// Placement reports are root bookkeeping, not votes: forward
		// verbatim (the member addressed its coordinator, which is us).
		// A report that arrives after the relay closed is dropped with
		// the other strays above, so the root never registers that copy.
		rop.up.send(m)
		return
	}
	if a.tr.Enabled() {
		a.tr.InstantCtx(rop.span.Context(), a.kern.Name(), "core", "relay.recv."+m.Type.String(),
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	}
	if m.Err != "" {
		a.relayMemberFail(rop, m.Pod, fmt.Errorf("%s", m.Err))
		return
	}
	// Batch the reply in its phase's wait-set. Once every member has
	// replied, the batch goes up as one reply of the members' own type.
	var set string
	switch m.Type {
	case msgCommDisabled:
		set = "disabled"
		if !rop.Arrive("disabled", m.Pod) {
			return
		}
	case msgDone, msgRestartDone:
		set = "done"
		if !rop.Arrive("done", m.Pod) {
			return
		}
	case msgContinueDone:
		set = "cont"
		if !rop.Arrive("cont", m.Pod) {
			return
		}
	default:
		return
	}
	rop.batches[set] = append(rop.batches[set], GroupReport{
		Pod:             m.Pod,
		LocalDuration:   m.LocalDuration,
		BlockedDuration: m.BlockedDuration,
		ImageBytes:      m.ImageBytes,
	})
	if !rop.Cleared(set) {
		return
	}
	rop.up.send(&wireMsg{
		Type: m.Type, Job: rop.job, Seq: rop.Seq,
		Reports: rop.batches[set], ctx: rop.span.Context(),
	})
	if rop.Cleared("done") && rop.Cleared("cont") {
		rop.Finish()
	}
}
