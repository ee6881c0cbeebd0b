// Package core implements Cruz's coordinated checkpoint-restart protocol
// (paper §5): a Checkpoint Coordinator and per-node Checkpoint Agents
// exchanging the minimum messages needed for atomicity — the two-phase
// pattern of Fig. 2 — with no channel flushing. In-flight packets are
// simply dropped by each node's packet filter while the local pod state
// (including live TCP state) is saved; TCP retransmission recovers them
// when communication is re-enabled.
//
// Both the blocking protocol of Fig. 2 and the early-continue
// optimization of Fig. 4 are implemented, plus coordinated restart, abort
// on agent failure (the "straightforward extension" of §5), and the
// bookkeeping the paper's evaluation needs: per-phase timings and message
// counts.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// msgType discriminates control messages.
type msgType int

// Control message types. Names follow Fig. 2.
const (
	msgCheckpoint msgType = iota + 1
	msgCommDisabled
	msgDone
	msgContinue
	msgContinueDone
	msgRestart
	msgRestartDone
	msgAbort

	// Membership: coordinator-driven heartbeats.
	msgPing
	msgPong

	// Durability (durability.go): the initiator pushes a checkpoint —
	// whole, or one ring position's erasure-coded shard subset — through
	// one delta exchange (offer/want/data/adopted) and reports the
	// placement to the coordinator (holding). Recovery runs it from the
	// other end: fetch directs the new home to its sources, pull asks
	// each, and each answers with one data message; fetch-done reports.
	msgOffer
	msgWant
	msgData
	msgAdopted
	msgHolding
	msgFetch
	msgPull
	msgFetchDone

	// Live migration (§4.2 taken live): the coordinator arms the
	// destination (migrate-target), directs the source to stream pre-copy
	// rounds into the destination's store (migrate), the source hands the
	// frozen residual over agent-to-agent (migrate-restore), the
	// destination reports takeover (migrate-done), and the coordinator
	// commits by telling the source to destroy its copy (migrate-commit,
	// acknowledged by migrate-src-done).
	msgMigrate
	msgMigrateTarget
	msgMigrateRestore
	msgMigrateDone
	msgMigrateCommit
	msgMigrateSrcDone

	// Hierarchical coordination (two-level tree): the root exchanges
	// these with group leaders instead of per-pod messages with every
	// member. Leaders relay the per-pod messages above to their group and
	// batch the members' replies, so the root sees O(N/size) messages per
	// protocol phase.
	msgGroupCheckpoint
	msgGroupRestart
	msgGroupContinue
	msgGroupAbort
	msgGroupDisabled
	msgGroupDone
	msgGroupRestartDone
	msgGroupContDone

	// Migration round-0 base negotiation: before an opening full round,
	// the source asks the destination whether it already holds the pod's
	// replicated checkpoint chain at the source's latest sequence
	// (migrate-base); if so (migrate-base-ack), the first pre-copy round
	// streams the delta against that held chain instead of the full
	// image.
	msgMigrateBase
	msgMigrateBaseAck
)

var msgNames = map[msgType]string{
	msgCheckpoint:   "checkpoint",
	msgCommDisabled: "comm-disabled",
	msgDone:         "done",
	msgContinue:     "continue",
	msgContinueDone: "continue-done",
	msgRestart:      "restart",
	msgRestartDone:  "restart-done",
	msgAbort:        "abort",
	msgPing:         "ping",
	msgPong:         "pong",
	msgOffer:        "offer",
	msgWant:         "want",
	msgData:         "data",
	msgAdopted:      "adopted",
	msgHolding:      "holding",
	msgFetch:        "fetch",
	msgPull:         "pull",
	msgFetchDone:    "fetch-done",

	msgMigrate:        "migrate",
	msgMigrateTarget:  "migrate-target",
	msgMigrateRestore: "migrate-restore",
	msgMigrateDone:    "migrate-done",
	msgMigrateCommit:  "migrate-commit",
	msgMigrateSrcDone: "migrate-src-done",

	msgGroupCheckpoint:  "group-checkpoint",
	msgGroupRestart:     "group-restart",
	msgGroupContinue:    "group-continue",
	msgGroupAbort:       "group-abort",
	msgGroupDisabled:    "group-disabled",
	msgGroupDone:        "group-done",
	msgGroupRestartDone: "group-restart-done",
	msgGroupContDone:    "group-cont-done",

	msgMigrateBase:    "migrate-base",
	msgMigrateBaseAck: "migrate-base-ack",
}

func (t msgType) String() string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("msgType(%d)", int(t))
}

// wireMsg is the single on-wire control message shape.
type wireMsg struct {
	Type msgType
	Seq  int
	Pod  string
	Err  string

	// Reporting fields carried on done/continue-done/restart-done.
	LocalDuration sim.Duration // local checkpoint or restore duration
	// BlockedDuration (on continue-done) is how long the pod was
	// actually frozen: SIGSTOP quiescence to resume.
	BlockedDuration sim.Duration
	ImageBytes      int64

	// Checkpoint options.
	Incremental bool
	Optimized   bool
	COW         bool
	Dedup       bool
	Pipeline    bool
	// Replicas asks the agent to stream the committed image to this many
	// peer nodes after its local save.
	Replicas int

	// Pre-copy (PrecopyRounds > 0): the agent streams up to this many
	// live rounds — copy-on-write captures taken without stopping the
	// pod — before the residual stop-and-copy at Seq. Rounds occupy the
	// sequence numbers (Seq-PrecopyRounds, Seq); only Seq is committed.
	// On migrate-target it names the migration's round block.
	PrecopyRounds int
	// PrecopyThresholdPages stops the rounds early once the live dirty
	// set is at most this many pages (0 = no threshold).
	PrecopyThresholdPages int
	// PrecopyMinGain stops the rounds when a round shrinks the dirty
	// set by less than this fraction of the previous round's pages —
	// the write rate is outrunning the copy rate (0 = no gain check).
	PrecopyMinGain float64

	// Load (on pong) is how many live pods the agent hosts — the
	// coordinator's placement signal.
	Load int

	// Migration. FrozeAt (on migrate-restore) is the source-side instant
	// the pod quiesced — the start of the downtime window the destination
	// closes on first resume. RoundPages (on migrate-src-done) is the
	// per-round streamed page counts, residual last — the convergence
	// record the result reports.
	FrozeAt    sim.Time
	RoundPages []int

	// Hierarchical coordination. Job names the coordinated operation a
	// group message belongs to (group messages address a whole group, so
	// Pod alone cannot route them). Group is the leader's relay list on
	// group-checkpoint/group-restart; Reports carries the batched member
	// replies on the upward aggregates (group-disabled carries pods only,
	// group-done adds save timings, group-cont-done adds blocked windows).
	Job     string
	Group   []GroupMember
	Reports []GroupReport

	// Repl carries the replication/fetch payload when present.
	Repl *replPayload

	// ctx is the distributed trace context. It is deliberately unexported:
	// gob skips it, because the context travels in the ctl frame header —
	// not the gob body — and is re-attached by frame() on receipt. Senders
	// set it in the message literal; handlers read it to parent their
	// spans (zero when the message belongs to no traced operation).
	ctx trace.SpanContext

	// tier is the send-path priority (unexported like ctx — it shapes
	// transmission, not the payload). Zero is TierForeground; bulk
	// durability data messages set TierBackground so they yield to
	// control traffic and migration rounds and pass the node's pacer.
	tier ctl.Tier
}

// GroupMember is one entry of a leader's relay list: the pod and the
// agent that manages it.
type GroupMember struct {
	Pod  string
	IP   tcpip.Addr
	Port uint16
}

// addrPort returns the member's agent endpoint.
func (g GroupMember) addrPort() tcpip.AddrPort {
	return tcpip.AddrPort{Addr: g.IP, Port: g.Port}
}

// GroupReport is one member's reply inside a leader's upward aggregate.
type GroupReport struct {
	Pod             string
	LocalDuration   sim.Duration
	BlockedDuration sim.Duration
	ImageBytes      int64
}

// replPayload is the bulk half of durability and fetch messages. Only
// the fields the message type needs are populated. Like wireMsg's, its
// field set is part of every frame's gob type descriptor: adding,
// removing or renaming a field changes the size of every message, and
// with it virtual time.
type replPayload struct {
	// Offer: the chain and (dedup) chunk or shard hashes available.
	Chain  []int
	Dedup  bool
	Hashes []mem.PageHash
	// Want: the delta the holder is missing.
	NeedSeqs   []int
	NeedHashes []mem.PageHash
	// Data: the delta itself (encoded images / manifests / chunks).
	Blobs     map[int][]byte
	Manifests map[int][]byte
	Chunks    []ckpt.ChunkData
	// Adopted / fetch-done / holding bookkeeping.
	Bytes int64
	// Holding: the peer that now holds the image; migrate: the
	// destination.
	PeerIP   tcpip.Addr
	PeerPort uint16

	// Erasure coding: the encoded shard set (on data), the holder's ring
	// position (which shard of each stripe it stores; offer, want, data,
	// adopted and holding carry it), and ECM, on holding, the set's
	// data-shard count — a report without it places a full image, which
	// holds every position. Sources, on fetch, lists the holders the new
	// home pulls from: one full holder or M shard holders (Pod unused).
	ECSet   []byte
	Holder  int
	ECM     int
	Sources []GroupMember
}

// msgSink is where an agent's protocol replies go: the control
// connection the request arrived on, or — on a group leader — the local
// relay aggregator, which absorbs replies from the leader's own pods
// without a network hop (the leader is a member of its own group).
type msgSink interface {
	send(m *wireMsg) error
}

// ctlConn is a gob-typed control connection.
type ctlConn struct {
	*ctl.Conn
	onMsg func(*ctlConn, *wireMsg)
	onErr func(*ctlConn, error)

	// encBuf is the reusable gob staging buffer: SendCtx copies the
	// payload into its frame, so the buffer is dead as soon as send
	// returns and one per connection suffices. (Each message still gets
	// a fresh encoder — frames must be self-contained because the
	// receiver decodes each one independently.)
	encBuf bytes.Buffer
}

func newCtlConn(tc *tcpip.TCPConn, onMsg func(*ctlConn, *wireMsg), onErr func(*ctlConn, error)) *ctlConn {
	c := &ctlConn{onMsg: onMsg, onErr: onErr}
	c.Conn = ctl.NewConn(tc, c.frame, func(_ *ctl.Conn, err error) {
		if c.onErr != nil {
			c.onErr(c, err)
		}
	})
	return c
}

// send encodes and transmits one message.
func (c *ctlConn) send(m *wireMsg) error {
	c.encBuf.Reset()
	if err := gob.NewEncoder(&c.encBuf).Encode(m); err != nil {
		return fmt.Errorf("core: encode %v: %w", m.Type, err)
	}
	if err := c.Conn.SendTierCtx(c.encBuf.Bytes(), m.ctx, m.tier); err != nil {
		return fmt.Errorf("core: send %v: %w", m.Type, err)
	}
	return nil
}

// frame decodes a received payload and dispatches it. The frame header's
// trace context is captured onto the message here, synchronously, because
// handlers defer the actual processing behind daemon-CPU cost and the
// conn's FrameCtx is only valid during this callback.
func (c *ctlConn) frame(conn *ctl.Conn, payload []byte) {
	var m wireMsg
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		if c.onErr != nil {
			c.onErr(c, fmt.Errorf("core: decode frame: %w", err))
		}
		return
	}
	m.ctx = conn.FrameCtx()
	c.onMsg(c, &m)
}
