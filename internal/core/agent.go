package core

import (
	"errors"
	"fmt"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// DefaultControlPort is the agents' control port.
const DefaultControlPort = 7077

// AgentParams models the agent daemon's local costs.
type AgentParams struct {
	// Port is the TCP control port the agent listens on.
	Port uint16
	// MsgCost is the CPU cost of handling one control message
	// (decode, dispatch, encode of the reply).
	MsgCost sim.Duration
	// FilterCost is the cost of installing or removing the packet-filter
	// rule that disables the pod's communication.
	FilterCost sim.Duration
	// CaptureCost is the in-kernel cost of walking process and socket
	// structures during the state copy (the short window the paper
	// holds the network-stack locks for).
	CaptureCost sim.Duration
	// CaptureBPS scales the capture window with the bytes copied (the
	// in-kernel memcpy rate). Zero leaves capture at the flat CaptureCost.
	CaptureBPS int64
	// EncodeBPS is the CPU rate at which image bytes are serialized into
	// the write stream. Zero makes encoding free (pre-pipeline behavior).
	EncodeBPS int64
	// HashBPS is the page-content hashing rate charged for pages whose
	// cached hash was stale at capture (Dedup checkpoints only).
	HashBPS int64
	// DedupPerChunk is the chunk-table lookup/refcount cost per captured
	// page (Dedup checkpoints only).
	DedupPerChunk sim.Duration
	// SegmentBytes is the pipelined save's segment size: with the
	// Pipeline option, segment k is encoded on the CPU while segment k-1
	// is on the disk. Zero or no Pipeline = one segment (serial
	// encode-then-write).
	SegmentBytes int64
	// ReplTimeout bounds one replication or fetch exchange; an offer is
	// retried once before the operation fails. Zero disables.
	ReplTimeout sim.Duration
	// BackgroundBPS rate-limits the node's ctl.TierBackground traffic
	// (durability replication and erasure-coded shard distribution)
	// through a shared token bucket, so it never saturates a link a
	// pre-copy stream or foreground pod traffic is using. Zero disables
	// pacing (pre-EC behavior).
	BackgroundBPS int64
}

// DefaultAgentParams returns costs calibrated for the paper's testbed.
func DefaultAgentParams() AgentParams {
	return AgentParams{
		Port:          DefaultControlPort,
		MsgCost:       60 * sim.Microsecond,
		FilterCost:    5 * sim.Microsecond,
		CaptureCost:   150 * sim.Microsecond,
		CaptureBPS:    4 << 30, // in-kernel copy, memory-bound
		EncodeBPS:     1 << 30, // serialization touches every byte once
		HashBPS:       2 << 30, // FNV-style streaming hash
		DedupPerChunk: 150 * sim.Nanosecond,
		SegmentBytes:  8 << 20,
		ReplTimeout:   30 * sim.Second,
	}
}

// bytesCost returns the CPU time to process n bytes at bps (0 = free).
func bytesCost(n int64, bps int64) sim.Duration {
	if bps <= 0 || n <= 0 {
		return 0
	}
	return sim.Duration(n * int64(sim.Second) / bps)
}

// Errors surfaced by agents.
var (
	ErrUnknownPod = errors.New("core: agent does not manage that pod")
	ErrBusy       = errors.New("core: operation already in progress for pod")
)

// Agent is the per-node checkpoint daemon. It runs outside any pod (so
// disabling a pod's communication never cuts the coordinator channel; see
// the paper's footnote 4) and executes the local steps of Fig. 2, plus
// the replication and fetch exchanges of the recovery extension.
type Agent struct {
	kern   *kernel.Kernel
	store  *ckpt.Store
	params AgentParams
	cpu    ctl.Serializer
	tr     *trace.Tracer

	pods     map[string]*zap.Pod
	table    *ctl.Table
	listener *tcpip.TCPListener

	// ec, when enabled, stripes committed deduplicated checkpoints M+R
	// across the first M+R ring peers instead of fully replicating them.
	ec ckpt.ECParams
	// pacer is the node's shared token bucket for TierBackground frames
	// (nil = unpaced).
	pacer *ctl.Pacer

	// peers is the replication ring: where committed checkpoints stream,
	// in preference order. peerConns are lazily dialed agent-to-agent
	// control connections.
	peers     []tcpip.AddrPort
	peerConns map[tcpip.AddrPort]*ctlConn

	// Stats counts agent activity.
	Stats AgentStats
}

// AgentStats counts agent activity.
type AgentStats struct {
	Checkpoints   uint64
	Restores      uint64
	Aborts        uint64
	Replications  uint64
	ReplBytes     int64
	ReplFailures  uint64
	Fetches       uint64
	MigrationsOut uint64
	MigrationsIn  uint64

	// Erasure-coded durability: completed holder exchanges, the shard
	// bytes they moved, failed exchanges, and — on recovery targets —
	// reconstructions run and chunks decoded from parity.
	ECDistributions     uint64
	ECShardBytes        int64
	ECFailures          uint64
	Reconstructs        uint64
	ReconstructedChunks uint64
}

// agentOp tracks one in-progress checkpoint or restart for a pod. The
// lifecycle (busy key, timeout, idempotent teardown) lives in the
// embedded ctl.Op; only the domain state is here.
type agentOp struct {
	*ctl.Op
	optimized bool
	cow       bool
	stoppedAt sim.Time
	conn      msgSink
	replicas  int
	captured  bool
	saveDone  bool
	contRecvd bool
	resumed   bool
	filterID  int

	// Round-driver bookkeeping (see rounds.go). sink is where saved
	// images go. epoch marks a pre-copy checkpoint or a migration: its
	// rounds and residual are abortable background work — if the epoch
	// fails, the rounds' snapshots release, redirty re-marks every page
	// whose only saved copy lived in the discarded epoch, and roundSeqs
	// are struck from the store, as if the epoch never happened.
	// roundPages is how many pages each round carried (residual last).
	sink       *roundSink
	epoch      bool
	rounds     []*ckpt.LiveCapture
	redirty    []func()
	roundSeqs  []int
	roundPages []int

	// Migration bookkeeping (migrate-out ops): where the rounds stream
	// and the bytes the delta transfers actually moved. baseQuery holds
	// the deferred <migrate> request while the round-0 base negotiation
	// is in flight.
	migrateTo tcpip.AddrPort
	streamed  int64
	stream    *ctl.Op // in-flight round transfer, cancelled on abort
	baseQuery *wireMsg

	// Trace spans for the op and its lifecycle phases. Zero values are
	// inert, so paths that never begin a phase may End it freely.
	span      trace.Span
	phRound   trace.Span
	phQuiesce trace.Span
	phDrain   trace.Span
	phCapture trace.Span
	phHash    trace.Span
	phDedup   trace.Span
	phWrite   trace.Span
	phCommit  trace.Span
}

// endSpans closes everything still open on the op (abort/failure paths).
func (op *agentOp) endSpans(args ...trace.Arg) {
	op.phRound.End(args...)
	op.phQuiesce.End(args...)
	op.phDrain.End(args...)
	op.phCapture.End(args...)
	op.phHash.End(args...)
	op.phDedup.End(args...)
	op.phWrite.End(args...)
	op.phCommit.End(args...)
	op.span.End(args...)
}

// NewAgent starts an agent on the node, listening on its control port.
// Images are written to and read from store (the node's local disk in the
// cluster-file-system arrangement the paper assumes).
func NewAgent(kern *kernel.Kernel, store *ckpt.Store, params AgentParams) (*Agent, error) {
	a := &Agent{
		kern:      kern,
		store:     store,
		params:    params,
		cpu:       ctl.Serializer{Engine: kern.Engine()},
		tr:        trace.FromEngine(kern.Engine()),
		pods:      make(map[string]*zap.Pod),
		table:     ctl.NewTable(kern.Engine()),
		peerConns: make(map[tcpip.AddrPort]*ctlConn),
	}
	addr, ok := kern.Stack().FirstAddr()
	if !ok {
		return nil, tcpip.ErrNoRoute
	}
	if params.BackgroundBPS > 0 {
		a.pacer = ctl.NewPacer(kern.Engine(), params.BackgroundBPS, 0)
	}
	l, err := kern.Stack().ListenTCP(tcpip.AddrPort{Addr: addr, Port: params.Port}, 16)
	if err != nil {
		return nil, fmt.Errorf("core: agent listen: %w", err)
	}
	a.listener = l
	l.SetNotify(a.acceptLoop)
	return a, nil
}

// Addr returns the agent's control endpoint.
func (a *Agent) Addr() tcpip.AddrPort { return a.listener.LocalAddr() }

// Store returns the agent's checkpoint store.
func (a *Agent) Store() *ckpt.Store { return a.store }

// Kernel returns the node the agent runs on.
func (a *Agent) Kernel() *kernel.Kernel { return a.kern }

// Manage registers a pod with the agent so coordinated operations can
// address it by name.
func (a *Agent) Manage(pod *zap.Pod) { a.pods[pod.Name()] = pod }

// Pod returns a managed pod by name, or nil.
func (a *Agent) Pod(name string) *zap.Pod { return a.pods[name] }

// SetPeers installs the replication ring: peers receive this agent's
// committed checkpoints, in order, when a checkpoint requests replicas.
func (a *Agent) SetPeers(peers []tcpip.AddrPort) { a.peers = peers }

// OpenOps returns the number of in-flight operations — the leak check
// recovery tests rely on.
func (a *Agent) OpenOps() int { return a.table.Len() }

// podOp returns the active checkpoint/restart op for a pod, or nil.
func (a *Agent) podOp(pod string) *agentOp {
	if o := a.table.Get(pod); o != nil {
		if op, ok := o.Data.(*agentOp); ok {
			return op
		}
	}
	return nil
}

// acceptLoop accepts coordinator and peer-agent connections.
func (a *Agent) acceptLoop() {
	for {
		tc, err := a.listener.Accept()
		if err != nil {
			return
		}
		cc := newCtlConn(tc, a.onMsg, nil)
		if a.pacer != nil {
			cc.SetPacer(a.pacer)
		}
	}
}

// onMsg dispatches a control message.
func (a *Agent) onMsg(c *ctlConn, m *wireMsg) {
	a.cpu.Do(a.params.MsgCost, func() {
		if m.Job != "" {
			// The root addressing this node as its group's leader.
			a.relayRequest(c, m)
			return
		}
		switch m.Type {
		case msgCheckpoint:
			a.startCheckpoint(c, m)
		case msgContinue:
			a.handleContinue(c, m)
		case msgRestart:
			a.startRestart(c, m)
		case msgAbort:
			a.handleAbort(m)
		case msgPing:
			c.send(&wireMsg{Type: msgPong, Seq: m.Seq, Load: a.liveLoad()})
		case msgOffer:
			a.handleOffer(c, m)
		case msgWant:
			a.handleWant(c, m)
		case msgData:
			a.handleData(c, m)
		case msgAdopted:
			a.handleAdopted(c, m)
		case msgFetch:
			a.handleFetch(c, m)
		case msgPull:
			a.handlePull(c, m)
		case msgMigrate:
			a.startMigrateOut(c, m)
		case msgMigrateBase:
			a.handleMigrateBase(c, m)
		case msgMigrateBaseAck:
			a.handleMigrateBaseAck(m)
		case msgMigrateTarget:
			a.startMigrateIn(c, m)
		case msgMigrateRestore:
			a.handleMigrateRestore(m)
		case msgMigrateCommit:
			a.handleMigrateCommit(c, m)
		case msgCommDisabled, msgDone, msgRestartDone, msgContinueDone, msgHolding:
			// Protocol replies arriving at an agent are group members
			// reporting to their leader (this node) — aggregate them.
			a.relayMemberMsg(m)
		}
	})
}

// liveLoad counts live managed pods — the agent's placement load signal.
func (a *Agent) liveLoad() int {
	n := 0
	for _, p := range a.pods {
		if !p.Destroyed() {
			n++
		}
	}
	return n
}

// fail reports an operation failure for a pod, echoing the request's
// trace context so the error lands in the right span tree.
func (a *Agent) fail(c msgSink, t msgType, m *wireMsg, err error) {
	c.send(&wireMsg{Type: t, Seq: m.Seq, Pod: m.Pod, Err: err.Error(), ctx: m.ctx})
}

// beginPodOp registers a checkpoint/restart op for the pod with the
// shared rollback-on-failure hook: remove the filter, resume the pod,
// close spans. Every failure path (local error, coordinator abort,
// node-failure teardown) funnels through ctl.Op.Fail exactly once.
func (a *Agent) beginPodOp(kind string, m *wireMsg, c msgSink) (*agentOp, error) {
	o, err := a.table.Begin(kind, m.Pod, m.Seq)
	if err != nil {
		return nil, ErrBusy
	}
	op := &agentOp{Op: o, optimized: m.Optimized, cow: m.COW, conn: c, replicas: m.Replicas}
	o.Data = op
	name := m.Pod
	o.OnFail(func(_ *ctl.Op, err error) {
		a.Stats.Aborts++
		if op.filterID != 0 {
			a.kern.Stack().Filter().RemoveRule(op.filterID)
			op.filterID = 0
		}
		// A migration round transfer in flight when the op dies would
		// otherwise sit out its full replication timeout (the far node
		// may be dead and answer nothing).
		if op.stream != nil {
			s := op.stream
			op.stream = nil
			if s.Active() {
				s.Fail(err)
			}
		}
		a.releaseEpoch(name, op, true)
		// Resolve the pod at failure time: a restart may have replaced it
		// since the op began.
		if p := a.pods[name]; p != nil && !p.Destroyed() && p.Stopped() {
			p.Resume()
		}
		op.endSpans(trace.Str("outcome", "aborted"))
	})
	return op, nil
}

// startCheckpoint runs the Agent steps of Fig. 2 (or Fig. 4 when
// optimized): disable communication, stop the pod, save its state, report
// done. With PrecopyRounds the stop is preceded by live pre-copy rounds
// that shrink the stopped work to the residual dirty set.
func (a *Agent) startCheckpoint(c msgSink, m *wireMsg) {
	pod, op := a.beginRoundOp("checkpoint", c, m, storeSink)
	if op == nil {
		return
	}
	op.epoch = m.PrecopyRounds > 0
	a.Stats.Checkpoints++
	if a.tr.Enabled() {
		// Adopt the coordinator's op: the local span tree becomes a branch
		// of the distributed checkpoint.
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.checkpoint",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	}
	if op.epoch {
		a.runRounds(c, m, pod, op, 0, 0, 0)
		return
	}
	a.runResidual(c, m, pod, op, 0)
}

// imageSaved completes a checkpoint once its residual image is on disk:
// report <done>, kick compaction and durability, finish or hand over to
// the continue path.
func (a *Agent) imageSaved(c msgSink, m *wireMsg, pod *zap.Pod, op *agentOp, plan *ckpt.SavePlan) {
	op.saveDone = true
	// Step 3: send <done>.
	c.send(&wireMsg{
		Type:          msgDone,
		Seq:           m.Seq,
		Pod:           m.Pod,
		LocalDuration: a.kern.Engine().Now().Sub(op.Started()),
		ImageBytes:    plan.TotalBytes,
		ctx:           op.span.Context(),
	})
	if plan.CompactAfter {
		// GC off the critical path: fold the incremental chain once
		// the checkpoint is reported.
		a.store.Compact(m.Pod, nil)
	}
	if op.replicas > 0 || a.ec.Enabled() {
		// Stream the committed image's durability copies — erasure-
		// coded shards or full replicas — off the critical path of
		// the coordinated cycle but inside the checkpoint's span tree.
		a.startDurability(m.Pod, m.Seq, op.replicas, m.Dedup, c, op.span.Context())
	}
	if op.resumed {
		// COW: the pod resumed before the write finished; the
		// operation completes here.
		op.endSpans()
		op.Finish()
		return
	}
	if !op.phCommit.Active() {
		op.phCommit = a.phase(op.span.Context(), "commit", m.Pod)
	}
	a.maybeFinishContinue(m.Pod, pod, op)
}

// handleContinue implements Steps 5-7: resume the pod, re-enable its
// communication, acknowledge. Under the Fig. 4 optimization the continue
// may arrive before the local save completes; the pod then resumes the
// moment its own save is done.
func (a *Agent) handleContinue(c msgSink, m *wireMsg) {
	pod, ok := a.pods[m.Pod]
	op := a.podOp(m.Pod)
	if !ok || op == nil || op.Seq != m.Seq {
		a.fail(c, msgContinueDone, m, ErrUnknownPod)
		return
	}
	op.contRecvd = true
	a.maybeFinishContinue(m.Pod, pod, op)
}

// maybeFinishContinue resumes once the coordinator's permission is in
// and the local state is safe: fully saved, or — under copy-on-write —
// merely captured (the write continues from the snapshot).
func (a *Agent) maybeFinishContinue(name string, pod *zap.Pod, op *agentOp) {
	localSafe := op.saveDone || (op.cow && op.captured)
	if !localSafe || !op.contRecvd || op.resumed || op.Aborted() {
		return
	}
	op.resumed = true
	t0 := a.kern.Engine().Now()
	a.cpu.Do(a.params.FilterCost, func() {
		pod.Resume()
		a.kern.Stack().Filter().RemoveRule(op.filterID)
		op.filterID = 0
		if a.tr.Enabled() {
			a.tr.InstantCtx(op.span.Context(), a.kern.Name(), "core", "filter.remove", trace.Str("pod", name))
		}
		op.phCommit.End()
		seq := op.Seq
		if op.saveDone {
			op.endSpans()
			op.Finish()
		}
		// op.span.Context() stays valid after endSpans: the reply is the
		// span's last causal act.
		op.conn.send(&wireMsg{
			Type:            msgContinueDone,
			Seq:             seq,
			Pod:             name,
			LocalDuration:   a.kern.Engine().Now().Sub(t0) + a.params.MsgCost,
			BlockedDuration: a.kern.Engine().Now().Sub(op.stoppedAt),
			ctx:             op.span.Context(),
		})
	})
}

// startRestart performs the local restart: disable communication for the
// pod's address before restoring (so restored TCP state cannot transmit
// prematurely, §5), load and restore the image, report done. A pod of the
// same name still running on this node (recovery restarts the whole job,
// including survivors) is destroyed only after the image loads, so a
// missing image leaves the application untouched. The restored pod
// resumes on <continue>.
func (a *Agent) startRestart(c msgSink, m *wireMsg) {
	op, err := a.beginPodOp("restart", m, c)
	if err != nil {
		a.fail(c, msgRestartDone, m, err)
		return
	}
	op.saveDone = true
	a.Stats.Restores++
	if a.tr.Enabled() {
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.restart",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)))
	}
	// Reuse the quiesce/capture/commit slots for the restart phases so
	// abort cleanup covers them.
	op.phQuiesce = a.phase(op.span.Context(), "load", m.Pod)

	load := func(done func(*ckpt.Image, error)) {
		if m.Seq > 0 {
			a.store.LoadMergedCtx(m.Pod, m.Seq, op.span.Context(), done)
		} else {
			a.store.LoadLatestCtx(m.Pod, op.span.Context(), done)
		}
	}
	load(func(img *ckpt.Image, err error) {
		if op.Aborted() {
			return
		}
		if err != nil {
			op.Fail(err)
			a.fail(c, msgRestartDone, m, err)
			return
		}
		op.phQuiesce.End()
		op.phCapture = a.phase(op.span.Context(), "restore", m.Pod)
		a.installImage(op.Op, m.Pod, img, &op.filterID, func(_ *zap.Pod, rerr error) {
			if rerr != nil {
				op.Fail(rerr)
				a.fail(c, msgRestartDone, m, rerr)
				return
			}
			op.phCapture.End(trace.Int("mem_bytes", img.MemoryBytes()))
			op.phCommit = a.phase(op.span.Context(), "commit", m.Pod)
			c.send(&wireMsg{
				Type:          msgRestartDone,
				Seq:           m.Seq,
				Pod:           m.Pod,
				LocalDuration: a.kern.Engine().Now().Sub(op.Started()),
				ImageBytes:    img.MemoryBytes(),
				ctx:           op.span.Context(),
			})
		})
	})
}

// installImage is the restore step restart and migrate-in share. After
// the in-kernel restore cost it drops the pod's traffic — restored TCP
// state re-issues its unacknowledged segments at once, and none may
// escape before the commit — supersedes any live instance of the pod on
// this node (the image is loadable by now, so a missing image never
// touches a running pod), restores the image and registers the pod.
func (a *Agent) installImage(o *ctl.Op, name string, img *ckpt.Image, filterID *int, done func(*zap.Pod, error)) {
	a.cpu.Do(a.params.FilterCost+a.params.CaptureCost, func() {
		if o.Aborted() {
			return
		}
		*filterID = a.kern.Stack().Filter().AddDropAddr(img.Net.IP)
		if old := a.pods[name]; old != nil && !old.Destroyed() {
			old.Destroy()
		}
		pod, err := ckpt.Restore(a.kern, img)
		if err == nil {
			a.pods[name] = pod
		}
		done(pod, err)
	})
}

// handleAbort rolls back an in-progress operation: remove the filter,
// resume the pod, forget the op. Any image already written stays in the
// store but is never committed by the coordinator. The pod key covers
// every pod-scoped op kind — checkpoint, restart, migrate-out and
// migrate-in all register their rollback through OnFail.
func (a *Agent) handleAbort(m *wireMsg) {
	o := a.table.Get(m.Pod)
	if o == nil {
		return
	}
	o.Fail(ErrAborted)
}
