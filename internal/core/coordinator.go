package core

import (
	"errors"
	"fmt"

	"cruz/internal/coord"
	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Errors surfaced by the coordinator.
var (
	ErrOpInProgress = errors.New("core: an operation is already in progress for this job")
	ErrAborted      = errors.New("core: operation aborted")
	ErrAgentFailed  = errors.New("core: agent reported failure")
	ErrNotConnected = errors.New("core: agent connection not established")
)

// Member is one piece of a distributed job: the pod and the agent that
// manages it. The paper uses "node" and "pod" interchangeably (§5).
type Member struct {
	Pod   string
	Agent tcpip.AddrPort
}

// Job names a distributed application: a set of pods across nodes that
// must checkpoint and restart consistently.
type Job struct {
	Name    string
	Members []Member
}

// CoordinatorParams models the coordinator daemon's costs.
type CoordinatorParams struct {
	// MsgCost is the CPU cost to build/send or receive/process one
	// control message. The coordinator is single-threaded, so fan-out to
	// N agents serializes — the origin of the per-node coordination
	// overhead slope in Fig. 5(b).
	MsgCost sim.Duration
	// Timeout aborts an operation if agents stay silent this long
	// (0 disables; the failure-handling extension of §5).
	Timeout sim.Duration
	// HeartbeatEvery is the membership ping period once a job is
	// watched (0 = DefaultHeartbeatEvery).
	HeartbeatEvery sim.Duration
	// LeaseTimeout declares a node failed after this much pong silence
	// (0 = DefaultLeaseTimeout).
	LeaseTimeout sim.Duration
	// GroupSize enables hierarchical (two-level tree) coordination when
	// > 1: members partition into contiguous groups of this size, and the
	// root exchanges aggregate messages with each group's deterministic
	// leader instead of per-pod messages with every member. The 2PC
	// decision logic is unchanged — the root still tracks every pod's
	// vote, leaders only batch the transport — so commit/abort outcomes
	// are identical to the flat fan-out. 0 or 1 keeps flat. A good value
	// is coord.GroupSizeFor(N) ≈ √N.
	GroupSize int
}

// Default membership timings: the lease spans several heartbeats so one
// delayed pong never trips failure detection.
const (
	DefaultHeartbeatEvery = 100 * sim.Millisecond
	DefaultLeaseTimeout   = 350 * sim.Millisecond
)

// DefaultCoordinatorParams returns testbed-calibrated costs.
func DefaultCoordinatorParams() CoordinatorParams {
	return CoordinatorParams{MsgCost: 20 * sim.Microsecond}
}

func (p CoordinatorParams) heartbeatEvery() sim.Duration {
	if p.HeartbeatEvery > 0 {
		return p.HeartbeatEvery
	}
	return DefaultHeartbeatEvery
}

func (p CoordinatorParams) leaseTimeout() sim.Duration {
	if p.LeaseTimeout > 0 {
		return p.LeaseTimeout
	}
	return DefaultLeaseTimeout
}

// PrecopyConfig tunes pre-copy checkpointing: the agent streams the
// pod's memory in live rounds — round 0 the whole image, each later
// round only the pages dirtied since the previous round — and stops the
// pod just for the final residual set. Freeze time then scales with the
// residual dirty set, not the image size.
type PrecopyConfig struct {
	// MaxRounds caps the live rounds (0 disables pre-copy entirely).
	MaxRounds int
	// DirtyThresholdPages ends the rounds as soon as the live dirty set
	// is at most this many pages: the residual stop-and-copy of that
	// little memory is cheaper than another round.
	DirtyThresholdPages int
	// MinRoundGain is the minimum fractional shrink of the dirty set a
	// round must achieve for another round to be worth taking. A
	// workload writing faster than the disk drains never converges;
	// this detects that and stops (0 = no check).
	MinRoundGain float64
}

// CheckpointOptions selects the protocol variant.
type CheckpointOptions struct {
	// Optimized selects the Fig. 4 early-continue protocol.
	Optimized bool
	// Incremental saves only pages dirtied since the previous capture.
	Incremental bool
	// COW selects the §5.2 copy-on-write optimization: pods resume as
	// soon as every node has *captured* its state, overlapping the image
	// writes with application execution.
	COW bool
	// Dedup stores the checkpoint content-addressed: a small manifest
	// plus refcounted page chunks, writing only chunks the store has
	// never seen. Captures record page hashes (cached; only pages
	// written since the last hashing capture cost a recompute).
	Dedup bool
	// Pipeline splits the agent's image write into segments, encoding
	// segment k on the CPU while segment k-1 is on the disk.
	Pipeline bool
	// Replicas streams each committed image to this many peer nodes
	// after the local save, off the critical path — the recovery
	// prerequisite that replaces manual image copying.
	Replicas int
	// Precopy, when MaxRounds > 0, streams the image in live rounds
	// before the stop-and-copy, shrinking the freeze to the residual
	// dirty set. The rounds are abortable background work: a failure
	// mid-round aborts the whole epoch and the agents discard the
	// partial round chain — the committed sequence never moves.
	Precopy PrecopyConfig
}

// PodReport is one agent's reported local timings.
type PodReport struct {
	Pod           string
	LocalDuration sim.Duration
	ImageBytes    int64
}

// CheckpointResult carries the measurements the paper's evaluation
// reports.
type CheckpointResult struct {
	Seq int
	// Latency is Fig. 5(a)'s metric: first <checkpoint> sent to last
	// <done> received at the coordinator.
	Latency sim.Duration
	// CycleLatency extends to the last <continue-done>.
	CycleLatency sim.Duration
	// MaxLocalCheckpoint and MaxLocalContinue are the slowest agents'
	// local phases.
	MaxLocalCheckpoint sim.Duration
	MaxLocalContinue   sim.Duration
	// MaxBlocked and MinBlocked bound how long pods were actually
	// frozen — the application-visible disruption. The Fig. 4
	// optimization shrinks MinBlocked (a fast node no longer waits for
	// the slowest save); COW shrinks both.
	MaxBlocked sim.Duration
	MinBlocked sim.Duration
	// Overhead is Fig. 5(b)'s metric: CycleLatency minus the global cost
	// of the local operations (their max across nodes, since they run in
	// parallel).
	Overhead sim.Duration
	// Messages counts control messages sent and received by the
	// coordinator for this operation — 4N for the blocking protocol,
	// 5N optimized: O(N), versus O(N²) for flushing baselines.
	Messages int
	// TotalImageBytes sums the agents' image sizes.
	TotalImageBytes int64
	// PerPod holds each agent's report.
	PerPod []PodReport
}

// RestartResult mirrors CheckpointResult for coordinated restart.
type RestartResult struct {
	Seq              int
	Latency          sim.Duration
	CycleLatency     sim.Duration
	MaxLocalRestore  sim.Duration
	MaxLocalContinue sim.Duration
	Overhead         sim.Duration
	Messages         int
	PerPod           []PodReport
}

// Coordinator drives the global protocol of Fig. 2 / Fig. 4, plus the
// membership and recovery extension: heartbeat/lease failure detection
// over registered nodes and automatic restart of watched jobs. It runs
// as a daemon on its own node (distinct from the application nodes, as
// in the paper's experiments).
type Coordinator struct {
	stack  *tcpip.Stack
	params CoordinatorParams
	cpu    ctl.Serializer
	tr     *trace.Tracer

	conns map[tcpip.AddrPort]*ctlConn
	table *ctl.Table

	// committed tracks the last globally committed checkpoint per job —
	// the atomicity record of the two-phase commit.
	committed map[string]int
	nextSeq   map[string]int

	// Membership and recovery state (recovery.go).
	nodes      []*nodeInfo
	nodeByAddr map[tcpip.AddrPort]*nodeInfo
	watches    []*watch
	ticker     *sim.Ticker
	// holders records who holds each committed (pod, seq) image — fed by
	// commits, <holding> reports, completed fetches and migrations.
	holders map[string]map[int]*holderSet
}

// coordOp is one coordinated checkpoint or restart: the lifecycle lives
// in the embedded ctl.Op (wait-sets "done", "disabled", "cont"), the
// measurements here.
type coordOp struct {
	*ctl.Op
	job        *Job
	restart    bool
	opts       CheckpointOptions
	doneAt     sim.Time
	maxLocal   sim.Duration
	maxCont    sim.Duration
	maxBlocked sim.Duration
	minBlocked sim.Duration
	reports    []PodReport
	msgBase    int
	span       trace.Span
	// groups is the op's aggregation tree (nil = flat fan-out). Computed
	// once per op from the member order and node liveness, so a leader
	// whose lease expired before the op began is deterministically
	// replaced by the next live member of its group.
	groups []coord.Group
}

// NewCoordinator creates a coordinator on the given node's stack.
func NewCoordinator(stack *tcpip.Stack, params CoordinatorParams) *Coordinator {
	return &Coordinator{
		stack:      stack,
		params:     params,
		cpu:        ctl.Serializer{Engine: stack.Engine()},
		tr:         trace.FromEngine(stack.Engine()),
		conns:      make(map[tcpip.AddrPort]*ctlConn),
		table:      ctl.NewTable(stack.Engine()),
		committed:  make(map[string]int),
		nextSeq:    make(map[string]int),
		nodeByAddr: make(map[tcpip.AddrPort]*nodeInfo),
		holders:    make(map[string]map[int]*holderSet),
	}
}

// CommittedSeq returns the last committed checkpoint sequence for a job.
func (c *Coordinator) CommittedSeq(job string) (int, bool) {
	seq, ok := c.committed[job]
	return seq, ok
}

// OpenOps returns the number of in-flight coordinated operations — the
// leak check recovery tests rely on.
func (c *Coordinator) OpenOps() int { return c.table.Len() }

// Connect establishes control connections to every agent of the job,
// invoking done when all are up (or with the first dial error).
func (c *Coordinator) Connect(job *Job, done func(error)) {
	addrs := make([]tcpip.AddrPort, 0, len(job.Members))
	for _, m := range job.Members {
		addrs = append(addrs, m.Agent)
	}
	c.connectAddrs(addrs, done)
}

// connectAddrs dials any not-yet-connected addresses, invoking done when
// every one is established.
func (c *Coordinator) connectAddrs(addrs []tcpip.AddrPort, done func(error)) {
	remaining := 0
	var failed error
	check := func() {
		if remaining == 0 && done != nil {
			done(failed)
			done = nil
		}
	}
	for _, addr := range addrs {
		addr := addr
		if _, ok := c.conns[addr]; ok {
			continue
		}
		tc, err := c.stack.DialTCP(tcpip.AddrPort{}, addr)
		if err != nil {
			if done != nil {
				done(err)
				done = nil
			}
			return
		}
		remaining++
		cc := newCtlConn(tc, c.onMsg, func(_ *ctlConn, err error) { c.onConnError(addr, err) })
		c.conns[addr] = cc
		established := false
		tc.SetNotify(func() {
			cc.Pump()
			if !established && tc.Established() {
				established = true
				remaining--
				check()
			}
			if err := tc.Err(); err != nil && failed == nil {
				failed = err
				remaining = 0
				check()
			}
		})
	}
	check()
}

// onConnError tears down a broken agent connection.
func (c *Coordinator) onConnError(addr tcpip.AddrPort, _ error) {
	delete(c.conns, addr)
}

// connFor finds the member's control connection.
func (c *Coordinator) connFor(m Member) (*ctlConn, error) {
	cc, ok := c.conns[m.Agent]
	if !ok || !cc.TCP().Established() {
		return nil, fmt.Errorf("%w: %s", ErrNotConnected, m.Agent)
	}
	return cc, nil
}

// msgCount sums message counters across the job's connections.
func (c *Coordinator) msgCount(job *Job) int {
	n := 0
	seen := map[tcpip.AddrPort]bool{}
	for _, m := range job.Members {
		if seen[m.Agent] {
			continue
		}
		seen[m.Agent] = true
		if cc, ok := c.conns[m.Agent]; ok {
			n += cc.Sent + cc.Received
		}
	}
	return n
}

// beginJobOp registers a coordinated op for the job, rejecting overlap
// with any other operation on it (including an in-flight recovery —
// except for the restart that recovery itself drives). It plans the
// op's aggregation tree, opens its span (under parent when set, else as
// a new root), expects every pod in the root's wait-sets and arms the
// timeout. The wait-sets always track every pod — under the tree the
// leaders batch the transport, never the decision.
func (c *Coordinator) beginJobOp(kind string, job *Job, seq int, fromRecovery bool, parent trace.SpanContext) (*coordOp, error) {
	if !fromRecovery && c.table.Get(recoveryKey(job.Name)) != nil {
		return nil, ErrOpInProgress
	}
	o, err := c.table.Begin(kind, job.Name, seq)
	if err != nil {
		return nil, ErrOpInProgress
	}
	op := &coordOp{Op: o, job: job, restart: kind == "restart", msgBase: c.msgCount(job), groups: c.planGroups(job)}
	o.Data = op
	if c.tr.Enabled() {
		// The op root: every agent span, phase, replication exchange, and
		// coordinator instant of the op hangs off this context.
		args := []trace.Arg{
			trace.Str("job", job.Name), trace.Int("seq", int64(seq)),
			trace.Int("members", int64(len(job.Members))),
		}
		if parent.Zero() {
			op.span = c.tr.BeginOp(c.stack.Name(), "core", kind, args...)
		} else {
			op.span = c.tr.BeginChild(parent, c.stack.Name(), "core", kind, args...)
		}
	}
	for _, m := range job.Members {
		op.Expect("done", m.Pod)
		if !op.restart {
			op.Expect("disabled", m.Pod)
		}
		op.Expect("cont", m.Pod)
	}
	// Failure aborts every member directly, even under the tree: abort
	// is the exceptional path, and sending it point-to-point keeps the
	// flat protocol's semantics when the failed party is a leader.
	// Leaders additionally get an <abort> for the job so their relay
	// state closes.
	o.OnFail(func(_ *ctl.Op, err error) {
		abort := wireMsg{Type: msgAbort, Seq: seq, ctx: op.span.Context()}
		c.fanOut(op, nil, abort, false)
		if op.groups != nil {
			c.fanOut(op, op.groups, abort, false)
		}
	})
	if c.params.Timeout > 0 {
		op.ArmTimeout(c.params.Timeout, fmt.Errorf("%w: timeout after %v", ErrAborted, c.params.Timeout))
	}
	return op, nil
}

// memberAlive reports whether a member's node is currently believed
// alive. Nodes the membership layer has never registered are presumed
// alive (tests and small clusters run without heartbeats).
func (c *Coordinator) memberAlive(m Member) bool {
	if ni, ok := c.nodeByAddr[m.Agent]; ok {
		return ni.alive
	}
	return true
}

// planGroups computes the op's aggregation tree, or nil for the flat
// fan-out. Group boundaries depend only on member order and GroupSize;
// liveness picks each group's leader, so a lease-expired leader is
// replaced by the next live member of its group — deterministically,
// with no election traffic.
func (c *Coordinator) planGroups(job *Job) []coord.Group {
	if c.params.GroupSize <= 1 || len(job.Members) <= 1 {
		return nil
	}
	return coord.Plan(len(job.Members), c.params.GroupSize, func(i int) bool {
		return c.memberAlive(job.Members[i])
	})
}

// fanOut sends a copy of m to every member (Pod set) or, with groups,
// to every group leader (Job set), one daemon-CPU message cost each. A
// start (checkpoint or restart) gives each leader its group's relay list
// and fails the op on an addressee it cannot reach, as well as on a group
// with no live member; a continue or abort skips such addressees.
func (c *Coordinator) fanOut(op *coordOp, groups []coord.Group, m wireMsg, start bool) {
	job := op.job
	send := func(to Member, wm *wireMsg) {
		c.cpu.Do(c.params.MsgCost, func() {
			cc, err := c.connFor(to)
			if err != nil {
				if start {
					op.Fail(err)
				}
				return
			}
			cc.send(wm)
		})
	}
	if groups == nil {
		for _, to := range job.Members {
			wm := m
			wm.Pod = to.Pod
			send(to, &wm)
		}
		return
	}
	for _, g := range groups {
		if g.Leader < 0 {
			if start {
				op.Fail(fmt.Errorf("%w: group of %s has no live member", ErrNotConnected, job.Name))
				return
			}
			continue
		}
		wm := m
		wm.Job = job.Name
		if start {
			for _, idx := range g.Members {
				to := job.Members[idx]
				wm.Group = append(wm.Group, GroupMember{Pod: to.Pod, IP: to.Agent.Addr, Port: to.Agent.Port})
			}
		}
		send(job.Members[g.Leader], &wm)
	}
}

// Checkpoint runs one coordinated checkpoint of the job, invoking done
// with the result.
func (c *Coordinator) Checkpoint(job *Job, opts CheckpointOptions, done func(*CheckpointResult, error)) {
	// A pre-copy epoch consumes a block of sequence numbers: the live
	// rounds chain through (seq-MaxRounds, seq) and only the residual at
	// seq is ever committed, so an aborted epoch leaves a hole, never a
	// dangling base.
	stride := 1
	if opts.Precopy.MaxRounds > 0 {
		stride = opts.Precopy.MaxRounds + 1
	}
	c.nextSeq[job.Name] += stride
	seq := c.nextSeq[job.Name]
	op, err := c.beginJobOp("checkpoint", job, seq, false, trace.SpanContext{})
	if err != nil {
		c.nextSeq[job.Name] -= stride
		done(nil, err)
		return
	}
	op.opts = opts
	op.OnFinish(func(_ *ctl.Op, err error) {
		if err != nil {
			op.span.End(trace.Str("err", err.Error()))
			done(nil, err)
			return
		}
		c.committed[job.Name] = seq
		c.recordCommitHolders(job, seq)
		if c.tr.Enabled() {
			c.tr.InstantCtx(op.span.Context(), c.stack.Name(), "core", "commit",
				trace.Str("job", job.Name), trace.Int("seq", int64(seq)))
		}
		op.span.End()
		now := c.stack.Engine().Now()
		res := &CheckpointResult{
			Seq:                seq,
			Latency:            op.doneAt.Sub(op.Started()),
			CycleLatency:       now.Sub(op.Started()),
			MaxLocalCheckpoint: op.maxLocal,
			MaxLocalContinue:   op.maxCont,
			MaxBlocked:         op.maxBlocked,
			MinBlocked:         op.minBlocked,
			Messages:           c.msgCount(job) - op.msgBase,
			PerPod:             op.reports,
		}
		res.Overhead = res.CycleLatency - res.MaxLocalCheckpoint - res.MaxLocalContinue
		for _, r := range op.reports {
			res.TotalImageBytes += r.ImageBytes
		}
		done(res, nil)
	})

	// Step 1: send <checkpoint> to all agents (serialized daemon CPU).
	c.fanOut(op, op.groups, wireMsg{
		Type:                  msgCheckpoint,
		Seq:                   seq,
		ctx:                   op.span.Context(),
		Incremental:           opts.Incremental,
		Optimized:             opts.Optimized,
		COW:                   opts.COW,
		Dedup:                 opts.Dedup,
		Pipeline:              opts.Pipeline,
		Replicas:              opts.Replicas,
		PrecopyRounds:         opts.Precopy.MaxRounds,
		PrecopyThresholdPages: opts.Precopy.DirtyThresholdPages,
		PrecopyMinGain:        opts.Precopy.MinRoundGain,
	}, true)
}

// Restart runs a coordinated restart of the job from checkpoint seq
// (0 = latest committed).
func (c *Coordinator) Restart(job *Job, seq int, done func(*RestartResult, error)) {
	c.runRestart(job, seq, false, trace.SpanContext{}, done)
}

// runRestart is the restart driver; fromRecovery lets an in-flight
// recovery restart the job past its own table entry, and parent (set by
// recovery) nests the restart inside the recovery op's span tree instead
// of opening a fresh root.
func (c *Coordinator) runRestart(job *Job, seq int, fromRecovery bool, parent trace.SpanContext, done func(*RestartResult, error)) {
	if seq == 0 {
		seq = c.committed[job.Name]
	}
	op, err := c.beginJobOp("restart", job, seq, fromRecovery, parent)
	if err != nil {
		done(nil, err)
		return
	}
	op.OnFinish(func(_ *ctl.Op, err error) {
		if err != nil {
			op.span.End(trace.Str("err", err.Error()))
			done(nil, err)
			return
		}
		op.span.End()
		now := c.stack.Engine().Now()
		res := &RestartResult{
			Seq:              seq,
			Latency:          op.doneAt.Sub(op.Started()),
			CycleLatency:     now.Sub(op.Started()),
			MaxLocalRestore:  op.maxLocal,
			MaxLocalContinue: op.maxCont,
			Messages:         c.msgCount(job) - op.msgBase,
			PerPod:           op.reports,
		}
		res.Overhead = res.CycleLatency - res.MaxLocalRestore - res.MaxLocalContinue
		done(res, nil)
	})
	c.fanOut(op, op.groups, wireMsg{Type: msgRestart, Seq: seq, ctx: op.span.Context()}, true)
}

// opForPod locates the active coordinated operation covering a pod
// report. Table iteration is key-sorted, so resolution is deterministic.
func (c *Coordinator) opForPod(pod string, seq int) *coordOp {
	var found *coordOp
	c.table.Each(func(o *ctl.Op) {
		if found != nil || o.Seq != seq {
			return
		}
		op, ok := o.Data.(*coordOp)
		if !ok {
			return
		}
		for _, m := range op.job.Members {
			if m.Pod == pod {
				found = op
				return
			}
		}
	})
	return found
}

// onMsg handles agent replies.
func (c *Coordinator) onMsg(cc *ctlConn, m *wireMsg) {
	c.cpu.Do(c.params.MsgCost, func() {
		switch m.Type {
		case msgPong:
			c.handlePong(cc, m)
			return
		case msgHolding:
			c.handleHolding(m)
			return
		case msgFetchDone:
			c.handleFetchDone(m)
			return
		case msgMigrateDone:
			c.handleMigrateDone(m)
			return
		case msgMigrateSrcDone:
			c.handleMigrateSrcDone(m)
			return
		}
		// A reply with Job set is a leader's batch for the job's op; one
		// without is a single pod's, a batch of one.
		var op *coordOp
		reports := m.Reports
		if m.Job != "" {
			if o := c.table.Get(m.Job); o != nil && o.Seq == m.Seq {
				op, _ = o.Data.(*coordOp)
			}
		} else {
			op = c.opForPod(m.Pod, m.Seq)
			reports = []GroupReport{{Pod: m.Pod, LocalDuration: m.LocalDuration, BlockedDuration: m.BlockedDuration, ImageBytes: m.ImageBytes}}
		}
		if op == nil {
			return
		}
		if c.tr.Enabled() {
			args := []trace.Arg{trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq))}
			if m.Job != "" {
				args = []trace.Arg{trace.Str("job", m.Job), trace.Int("seq", int64(m.Seq)), trace.Int("batch", int64(len(m.Reports)))}
			}
			c.tr.InstantCtx(op.span.Context(), c.stack.Name(), "core", "recv."+m.Type.String(), args...)
		}
		if m.Err != "" {
			op.Fail(fmt.Errorf("%w: pod %s: %s", ErrAgentFailed, m.Pod, m.Err))
			return
		}
		// Replay the batch, in the leader's (deterministic) arrival order,
		// through the per-pod arrival logic: commit and abort decisions
		// cannot differ between the flat and the tree transport.
		for _, r := range reports {
			if !op.Active() {
				return
			}
			switch m.Type {
			case msgCommDisabled:
				c.arriveDisabled(op, r.Pod)
			case msgDone, msgRestartDone:
				c.arriveDone(op, r)
			case msgContinueDone:
				c.arriveCont(op, r)
			}
		}
	})
}

// arriveDisabled handles one pod's <comm-disabled> vote.
// Fig. 4: all communication disabled -> early continue.
func (c *Coordinator) arriveDisabled(op *coordOp, pod string) {
	if op.Arrive("disabled", pod) {
		if (op.opts.Optimized || op.opts.COW) && op.Cleared("disabled") {
			c.sendContinue(op)
		}
	}
}

// arriveDone handles one pod's <done>/<restart-done> vote and report.
func (c *Coordinator) arriveDone(op *coordOp, r GroupReport) {
	if !op.Arrive("done", r.Pod) {
		return
	}
	if r.LocalDuration > op.maxLocal {
		op.maxLocal = r.LocalDuration
	}
	op.reports = append(op.reports, PodReport{
		Pod:           r.Pod,
		LocalDuration: r.LocalDuration,
		ImageBytes:    r.ImageBytes,
	})
	if op.Cleared("done") {
		op.doneAt = c.stack.Engine().Now()
		if (!op.opts.Optimized && !op.opts.COW) || op.restart {
			c.sendContinue(op)
		} else if op.Cleared("cont") {
			// COW/optimized: continues may have completed before
			// the last image write finished.
			op.Finish()
		}
	}
}

// arriveCont handles one pod's <continue-done>.
func (c *Coordinator) arriveCont(op *coordOp, r GroupReport) {
	if !op.Arrive("cont", r.Pod) {
		return
	}
	if r.LocalDuration > op.maxCont {
		op.maxCont = r.LocalDuration
	}
	if r.BlockedDuration > op.maxBlocked {
		op.maxBlocked = r.BlockedDuration
	}
	if op.minBlocked == 0 || r.BlockedDuration < op.minBlocked {
		op.minBlocked = r.BlockedDuration
	}
	if op.Cleared("cont") && op.Cleared("done") {
		op.Finish()
	}
}

// sendContinue issues Step 3 of Fig. 2 — per leader under the tree,
// per member flat.
func (c *Coordinator) sendContinue(op *coordOp) {
	c.fanOut(op, op.groups, wireMsg{Type: msgContinue, Seq: op.Seq, ctx: op.span.Context()}, false)
}
