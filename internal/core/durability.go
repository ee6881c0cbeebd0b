package core

import (
	"errors"
	"fmt"
	"strconv"

	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/trace"
)

// Durability (agent side). After a checkpoint's local save commits, the
// agent moves the image onto other nodes with one delta exchange, whether
// a peer keeps a full replica or — under erasure coding — one ring
// position's shard subset. The two differ only in the hashes offered and
// in the shard set and position the data message carries:
//
//	initiator -> holder  offer    chain + distinct chunk (or shard) hashes
//	holder -> initiator  want     the chain links and hashes it lacks
//	initiator -> holder  data     that delta (+ shard set and position)
//	holder -> initiator  adopted  on disk; the initiator reports <holding>
//
// Only the delta travels, so steady-state durability of a dedup chain
// costs little more than the manifest, and unchanged stripes dedupe away
// like unchanged chunks. Live migration streams its rounds through the
// same exchange.
//
// Recovery runs it from the other end. The coordinator sends the new
// home a <fetch> naming its sources — one live full holder, or M live
// shard holders — and the new home <pull>s each in turn. Every source
// answers with one <data> carrying all it holds: a full image installs
// directly, shard subsets decode once M have landed. Any R node losses
// are survivable, because the rotated placement gives every holder
// exactly one shard per stripe.

// ErrReplTimeout marks a durability or fetch exchange that went silent.
var ErrReplTimeout = errors.New("core: replication timed out")

// durOp is the initiator side of one durability exchange: this agent
// pushing one checkpoint — whole, or one holder's shard subset — over one
// peer connection.
type durOp struct {
	*ctl.Op
	peer tcpip.AddrPort // holder's listener endpoint
	conn *ctlConn
	// coord, when set, receives the <holding> placement report the
	// coordinator's holder registry feeds on.
	coord msgSink
	// onDone, when set, fires exactly once when the exchange completes:
	// with the transferred byte count on success, or the failure error.
	// Migration rounds use it to pace the stream — the next round starts
	// only once the destination has adopted this one.
	onDone func(int64, error)
	// tier is the send-path priority of the bulk data frame:
	// TierBackground for durability (paced, yields to everything),
	// TierStream for migration rounds.
	tier ctl.Tier
	// set, when non-nil, is the erasure-coded set this exchange
	// distributes (setBlob its wire form) and holder the ring position
	// the peer stores; nil pushes the whole image.
	set     *ckpt.ECSet
	setBlob []byte
	holder  int
	span    trace.Span
}

// failed counts a failed exchange against its tier.
func (a *Agent) failed(op *durOp) {
	if op.set != nil {
		a.Stats.ECFailures++
	} else {
		a.Stats.ReplFailures++
	}
}

// fetchOp is the new home's side of a coordinator-directed fetch:
// pull (pod, seq) from its sources one at a time, then install the full
// image or decode the gathered shard subsets, and report.
type fetchOp struct {
	*ctl.Op
	pod       string
	conn      msgSink       // coordinator connection for the final fetch-done
	sources   []GroupMember // pulled one at a time
	next      int           // next source to pull
	pending   int           // pulls not yet answered
	adopting  int           // shard arrivals whose disk writes are in flight
	set       *ckpt.ECSet
	manifests map[int][]byte
	blocks    []ckpt.ChunkData
	wireBytes int64
	span      trace.Span
}

func addrKey(ap tcpip.AddrPort) string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", ap.Addr[0], ap.Addr[1], ap.Addr[2], ap.Addr[3], ap.Port)
}

func durKey(pod string, seq int, remote tcpip.AddrPort) string {
	return "repl/" + pod + "/" + strconv.Itoa(seq) + "/" + addrKey(remote)
}

func fetchKey(pod string) string { return "fetch/" + pod }

// peerConn returns a live agent-to-agent connection to addr, dialing one
// if needed. Frames queue until the handshake completes, so callers may
// send immediately.
func (a *Agent) peerConn(addr tcpip.AddrPort) (*ctlConn, error) {
	if cc, ok := a.peerConns[addr]; ok && cc.TCP().Err() == nil {
		return cc, nil
	}
	tc, err := a.kern.Stack().DialTCP(tcpip.AddrPort{}, addr)
	if err != nil {
		return nil, err
	}
	cc := newCtlConn(tc, a.onMsg, func(c *ctlConn, _ error) {
		if a.peerConns[addr] == c {
			delete(a.peerConns, addr)
		}
	})
	if a.pacer != nil {
		cc.SetPacer(a.pacer)
	}
	a.peerConns[addr] = cc
	return cc, nil
}

// SetEC configures erasure-coded durability: committed deduplicated
// checkpoints are striped M+R across the first M+R ring peers instead of
// being fully replicated. Checkpoints that cannot stripe (blob form, or
// fewer than M+R peers) fall back to R-way replication.
func (a *Agent) SetEC(p ckpt.ECParams) { a.ec = p }

// startDurability pushes the committed checkpoint to the ring, off the
// coordinated cycle's critical path; ctx parents the exchanges under the
// checkpoint that produced the image. A deduplicated image stripes M+R
// ways when erasure coding is configured and the ring has a peer for
// every shard; anything else goes whole to the first replicas peers (at
// least R under EC, keeping the survive-R-losses guarantee).
func (a *Agent) startDurability(pod string, seq, replicas int, dedup bool, coord msgSink, ctx trace.SpanContext) {
	if a.ec.Enabled() && dedup && len(a.peers) >= a.ec.M+a.ec.R {
		a.startECDistribute(pod, seq, coord, ctx)
		return
	}
	n := replicas
	if a.ec.Enabled() && n < a.ec.R {
		n = a.ec.R
	}
	if n > len(a.peers) {
		n = len(a.peers)
	}
	for i := 0; i < n; i++ {
		a.pushTo(i, pod, seq, ctx, &durOp{coord: coord, tier: ctl.TierBackground})
	}
}

// startECDistribute encodes the committed chain into M+R shards and
// pushes each holder its subset. Encoding cost is charged at EncodeBPS
// over the striped data; the parity lands on the local disk first (the
// primary is itself a holder of record until the set supersedes).
func (a *Agent) startECDistribute(pod string, seq int, coord msgSink, ctx trace.SpanContext) {
	plan, err := a.store.PlanECSave(pod, seq, a.ec)
	if err != nil {
		a.Stats.ECFailures++
		return
	}
	setBlob, err := plan.Set.Encode()
	if err != nil {
		a.Stats.ECFailures++
		return
	}
	var sp trace.Span
	if a.tr.Enabled() {
		sp = a.tr.BeginChild(ctx, a.kern.Name(), "core", "agent.ec-encode",
			trace.Str("pod", pod), trace.Int("seq", int64(seq)),
			trace.Int("stripes", int64(plan.Stripes)),
			trace.Int("parity_bytes", plan.ParityBytes))
	}
	// Parity is a GF(256) pass over every striped byte.
	a.cpu.Do(bytesCost(plan.DataBytes, a.params.EncodeBPS), func() {
		a.store.Disk().Write(plan.ParityBytes, func() {
			sp.End()
			for h := 0; h < plan.Set.Shards(); h++ {
				a.pushTo(h, pod, seq, ctx, &durOp{coord: coord, tier: ctl.TierBackground,
					set: plan.Set, setBlob: setBlob, holder: h})
			}
		})
	})
}

// pushTo opens op's exchange with ring peer i.
func (a *Agent) pushTo(i int, pod string, seq int, ctx trace.SpanContext, op *durOp) {
	op.peer = a.peers[i]
	cc, err := a.peerConn(op.peer)
	if err != nil {
		a.failed(op)
		return
	}
	a.push(cc, pod, seq, ctx, op)
}

// push runs one offer/want/data exchange for (pod, seq) over cc. It
// returns the exchange's ctl op (nil if one was already in flight) so
// callers that pace on the transfer — migration rounds — can cancel it
// on abort.
func (a *Agent) push(cc *ctlConn, pod string, seq int, ctx trace.SpanContext, op *durOp) *ctl.Op {
	o, err := a.table.Begin("replicate", durKey(pod, seq, cc.TCP().RemoteAddr()), seq)
	if err != nil {
		if op.onDone != nil {
			op.onDone(0, ErrBusy)
		}
		return nil // this exchange is already in flight
	}
	op.Op, op.conn = o, cc
	o.Data = op
	if a.tr.Enabled() {
		args := []trace.Arg{trace.Str("pod", pod), trace.Int("seq", int64(seq))}
		if op.set != nil {
			args = append(args, trace.Int("holder", int64(op.holder)))
		}
		op.span = a.tr.BeginChild(ctx, a.kern.Name(), "core", "agent.replicate", args...)
	}
	o.OnFail(func(_ *ctl.Op, err error) {
		a.failed(op)
		op.span.End(trace.Str("err", err.Error()))
		if op.onDone != nil {
			op.onDone(0, err)
		}
	})
	var offer *ckpt.Offer
	if op.set != nil {
		offer = op.set.HolderOffer(op.holder)
	} else if offer, err = a.store.ExportOffer(pod, seq); err != nil {
		o.Fail(err)
		return nil
	}
	send := func() {
		cc.send(&wireMsg{Type: msgOffer, Seq: seq, Pod: pod, ctx: op.span.Context(), Repl: &replPayload{
			Chain: offer.Chain, Dedup: offer.Dedup, Hashes: offer.Hashes, Holder: op.holder,
		}})
	}
	o.ArmRetries(a.params.ReplTimeout, 1, func(*ctl.Op) { send() }, ErrReplTimeout)
	send()
	return o
}

// durOpFor locates the initiator-side op a reply on cc belongs to.
func (a *Agent) durOpFor(pod string, seq int, cc *ctlConn) *durOp {
	if o := a.table.Get(durKey(pod, seq, cc.TCP().RemoteAddr())); o != nil {
		if op, ok := o.Data.(*durOp); ok {
			return op
		}
	}
	return nil
}

// handleOffer is the holder side: answer with the missing delta, echoing
// the offered ring position. The chunk-set comparison costs
// DedupPerChunk per offered hash.
func (a *Agent) handleOffer(c *ctlConn, m *wireMsg) {
	if m.Repl == nil {
		return
	}
	offer := &ckpt.Offer{Pod: m.Pod, Seq: m.Seq, Chain: m.Repl.Chain, Dedup: m.Repl.Dedup, Hashes: m.Repl.Hashes}
	a.cpu.Do(a.params.DedupPerChunk*sim.Duration(len(offer.Hashes)), func() {
		needSeqs, needHashes := a.store.MissingFor(offer)
		c.send(&wireMsg{Type: msgWant, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, Repl: &replPayload{
			NeedSeqs: needSeqs, NeedHashes: needHashes, Holder: m.Repl.Holder,
		}})
	})
}

// handleWant is the initiator side: build and ship the delta, plus the
// shard set and position for a shard holder.
func (a *Agent) handleWant(c *ctlConn, m *wireMsg) {
	op := a.durOpFor(m.Pod, m.Seq, c)
	if op == nil || m.Repl == nil {
		return
	}
	tx, err := a.store.BuildTransfer(m.Pod, m.Seq, m.Repl.NeedSeqs, m.Repl.NeedHashes)
	if err != nil {
		op.Fail(err)
		return
	}
	// The offer reached the peer; from here a plain timeout guards the
	// bulk transfer (re-offering would duplicate adopted state).
	op.ArmTimeout(a.params.ReplTimeout, ErrReplTimeout)
	a.cpu.Do(bytesCost(tx.TotalBytes, a.params.EncodeBPS), func() {
		if !op.Active() {
			return
		}
		op.conn.send(&wireMsg{Type: msgData, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context(), tier: op.tier, Repl: &replPayload{
			Blobs: tx.Blobs, Manifests: tx.Manifests, Chunks: tx.Chunks, Bytes: tx.TotalBytes,
			ECSet: op.setBlob, Holder: op.holder,
		}})
	})
}

// shardSet decodes a data message's shard set and checks the ring
// position it assigns: a holder outside [0, M+R) would index past every
// stripe.
func shardSet(p *replPayload) (*ckpt.ECSet, error) {
	set, err := ckpt.DecodeECSet(p.ECSet)
	if err != nil {
		return nil, err
	}
	if p.Holder < 0 || p.Holder >= set.Shards() {
		return nil, fmt.Errorf("core: shard holder %d outside a %d+%d set", p.Holder, set.M, set.R)
	}
	return set, nil
}

// handleData is the holder side of a push: adopt the delta into the local
// store (decode CPU, then the disk write) and acknowledge. A <data> on a
// connection this agent pulled from answers a recovery fetch instead.
func (a *Agent) handleData(c *ctlConn, m *wireMsg) {
	if op := a.fetchFor(c, m); op != nil {
		a.fetchArrived(op, m)
		return
	}
	if m.Repl == nil {
		return
	}
	tx := &ckpt.Transfer{
		Pod: m.Pod, Seq: m.Seq,
		Blobs: m.Repl.Blobs, Manifests: m.Repl.Manifests, Chunks: m.Repl.Chunks,
		TotalBytes: m.Repl.Bytes, Ctx: m.ctx, Holder: m.Repl.Holder,
	}
	if len(m.Repl.ECSet) > 0 {
		set, err := shardSet(m.Repl)
		if err != nil {
			a.fail(c, msgAdopted, m, err)
			return
		}
		tx.Set = set
	}
	a.cpu.Do(bytesCost(tx.TotalBytes, a.params.EncodeBPS), func() {
		a.store.Adopt(tx, func(n int64, err error) {
			if err != nil {
				a.fail(c, msgAdopted, m, err)
				return
			}
			c.send(&wireMsg{Type: msgAdopted, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, Repl: &replPayload{Bytes: n, Holder: tx.Holder}})
			if tx.Set == nil {
				a.migrateRoundArrived(m.Pod, m.Seq)
			}
		})
	})
}

// handleAdopted is the initiator side: the peer holds its copy. Report
// the placement to the coordinator's holder registry.
func (a *Agent) handleAdopted(c *ctlConn, m *wireMsg) {
	op := a.durOpFor(m.Pod, m.Seq, c)
	if op == nil {
		return
	}
	if m.Err != "" {
		op.Fail(fmt.Errorf("core: holder: %s", m.Err))
		return
	}
	var n int64
	if m.Repl != nil {
		n = m.Repl.Bytes
	}
	report := &replPayload{Bytes: n, PeerIP: op.peer.Addr, PeerPort: op.peer.Port}
	if op.set != nil {
		a.Stats.ECDistributions++
		a.Stats.ECShardBytes += n
		report.Holder, report.ECM = op.holder, op.set.M
	} else {
		a.Stats.Replications++
		a.Stats.ReplBytes += n
	}
	op.span.End(trace.Int("bytes", n))
	if op.coord != nil {
		op.coord.send(&wireMsg{Type: msgHolding, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context(), Repl: report})
	}
	op.Finish()
	if op.onDone != nil {
		op.onDone(n, nil)
	}
}

// handleFetch is the recovery transfer, new-home side: the coordinator
// directs this agent to pull (pod, seq) from the given sources before the
// restart lands here.
func (a *Agent) handleFetch(c *ctlConn, m *wireMsg) {
	if a.store.HasSeq(m.Pod, m.Seq) {
		// Already a holder — transfer cost is zero.
		c.send(&wireMsg{Type: msgFetchDone, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, Repl: &replPayload{Bytes: 0}})
		return
	}
	if m.Repl == nil || len(m.Repl.Sources) == 0 {
		a.fail(c, msgFetchDone, m, ErrUnknownPod)
		return
	}
	o, err := a.table.Begin("fetch", fetchKey(m.Pod), m.Seq)
	if err != nil {
		a.fail(c, msgFetchDone, m, ErrBusy)
		return
	}
	op := &fetchOp{Op: o, pod: m.Pod, conn: c, sources: m.Repl.Sources, pending: len(m.Repl.Sources), manifests: make(map[int][]byte)}
	o.Data = op
	if a.tr.Enabled() {
		op.span = a.tr.BeginChild(m.ctx, a.kern.Name(), "core", "agent.fetch",
			trace.Str("pod", m.Pod), trace.Int("seq", int64(m.Seq)),
			trace.Int("sources", int64(len(m.Repl.Sources))))
	}
	mm := *m
	o.OnFail(func(_ *ctl.Op, err error) {
		op.span.End(trace.Str("err", err.Error()))
		a.fail(c, msgFetchDone, &mm, err)
	})
	o.ArmTimeout(a.params.ReplTimeout, ErrReplTimeout)
	// Pull one source at a time. The new home's link is the bottleneck
	// either way, so serial pulls cost no extra network time — but they
	// stagger the arrivals, so each subset's disk adoption overlaps the
	// next subset's transfer instead of every write queueing at the end.
	a.pullNext(op)
}

// pullNext issues the pull for op.sources[op.next], if any remain.
func (a *Agent) pullNext(op *fetchOp) {
	if op.next >= len(op.sources) {
		return
	}
	s := op.sources[op.next]
	op.next++
	cc, cerr := a.peerConn(s.addrPort())
	if cerr != nil {
		op.Fail(cerr)
		return
	}
	cc.send(&wireMsg{Type: msgPull, Seq: op.Seq, Pod: op.pod, ctx: op.span.Context()})
}

// handlePull is the source side of a recovery fetch: answer in one
// message with everything this node holds of (pod, seq) — the whole
// chain, or its shard subset with the set and the chain manifests. The
// answer streams at TierStream: recovery is latency-sensitive, unlike the
// background durability that put the copy here.
func (a *Agent) handlePull(c *ctlConn, m *wireMsg) {
	tx, err := a.store.Serve(m.Pod, m.Seq)
	if err != nil {
		a.fail(c, msgData, m, err)
		return
	}
	var setBlob []byte
	if tx.Set != nil {
		if setBlob, err = tx.Set.Encode(); err != nil {
			a.fail(c, msgData, m, err)
			return
		}
	}
	a.cpu.Do(bytesCost(tx.TotalBytes, a.params.EncodeBPS), func() {
		if tx.Set == nil {
			a.Stats.Replications++
			a.Stats.ReplBytes += tx.TotalBytes
		}
		c.send(&wireMsg{Type: msgData, Seq: m.Seq, Pod: m.Pod, ctx: m.ctx, tier: ctl.TierStream, Repl: &replPayload{
			Blobs: tx.Blobs, Manifests: tx.Manifests, Chunks: tx.Chunks, Bytes: tx.TotalBytes, ECSet: setBlob,
		}})
	})
}

// fetchFor returns the in-flight fetch a <data> on c answers: one for
// (pod, seq) that has pulled from c's far end.
func (a *Agent) fetchFor(c *ctlConn, m *wireMsg) *fetchOp {
	o := a.table.Get(fetchKey(m.Pod))
	if o == nil || o.Seq != m.Seq {
		return nil
	}
	op, ok := o.Data.(*fetchOp)
	if !ok {
		return nil
	}
	for _, s := range op.sources[:op.next] {
		if s.addrPort() == c.TCP().RemoteAddr() {
			return op
		}
	}
	return nil
}

// fetchArrived takes one source's answer. A full image installs (decode
// CPU, then the disk write) and completes the fetch. A shard subset's
// blocks go to disk as they arrive — content-addressed chunks, exactly
// like a holder's adoption — so the disk overlaps the remaining pulls
// and the final decode only has the parity-recovered bytes left to
// write; once every source has answered and landed, decode and install.
func (a *Agent) fetchArrived(op *fetchOp, m *wireMsg) {
	if m.Err != "" {
		op.Fail(fmt.Errorf("core: fetch source: %s", m.Err))
		return
	}
	if m.Repl == nil {
		return
	}
	if len(m.Repl.ECSet) == 0 {
		tx := &ckpt.Transfer{
			Pod: m.Pod, Seq: m.Seq,
			Blobs: m.Repl.Blobs, Manifests: m.Repl.Manifests, Chunks: m.Repl.Chunks,
			TotalBytes: m.Repl.Bytes, Ctx: m.ctx,
		}
		a.cpu.Do(bytesCost(tx.TotalBytes, a.params.EncodeBPS), func() {
			a.store.Adopt(tx, func(_ int64, err error) {
				if err != nil {
					op.Fail(err)
					return
				}
				if !op.Active() {
					return
				}
				a.Stats.Fetches++
				op.span.End(trace.Int("bytes", tx.TotalBytes))
				op.conn.send(&wireMsg{Type: msgFetchDone, Seq: op.Seq, Pod: op.pod, ctx: op.span.Context(), Repl: &replPayload{Bytes: tx.TotalBytes}})
				op.Finish()
			})
		})
		return
	}
	if op.set == nil {
		set, err := ckpt.DecodeECSet(m.Repl.ECSet)
		if err != nil {
			op.Fail(err)
			return
		}
		op.set = set
	}
	for seq, blob := range m.Repl.Manifests {
		op.manifests[seq] = blob
	}
	op.blocks = append(op.blocks, m.Repl.Chunks...)
	op.wireBytes += m.Repl.Bytes
	op.pending--
	a.pullNext(op)
	var arrived int64
	for _, cd := range m.Repl.Chunks {
		arrived += int64(len(cd.Data))
	}
	op.adopting++
	a.store.Disk().Write(arrived, func() {
		if !op.Active() {
			return
		}
		op.adopting--
		if op.pending == 0 && op.adopting == 0 {
			a.finishReconstruct(op)
		}
	})
}

// finishReconstruct decodes the gathered shards back into the checkpoint
// chain: a GF(256) pass over the striped bytes on the daemon CPU, the
// chunk installs, and one disk write of the parity-recovered bytes (the
// directly-arrived blocks hit disk as their subsets landed). The reported
// LocalDuration is the decode-to-disk window — the reconstruct share of
// the recovery's MTTR.
func (a *Agent) finishReconstruct(op *fetchOp) {
	start := a.kern.Engine().Now()
	a.cpu.Do(bytesCost(op.set.DataBytes(), a.params.EncodeBPS), func() {
		if !op.Active() {
			return
		}
		rec, err := a.store.ReconstructEC(op.set, op.manifests, op.blocks)
		if err != nil {
			op.Fail(err)
			return
		}
		a.store.Disk().Write(rec.DecodedBytes, func() {
			if !op.Active() {
				return
			}
			a.Stats.Reconstructs++
			a.Stats.ReconstructedChunks += uint64(rec.DecodedChunks)
			now := a.kern.Engine().Now()
			op.span.End(
				trace.Int("decoded_stripes", int64(rec.DecodedStripes)),
				trace.Int("decoded_chunks", int64(rec.DecodedChunks)),
				trace.Int("bytes", op.wireBytes))
			op.conn.send(&wireMsg{
				Type:          msgFetchDone,
				Seq:           op.Seq,
				Pod:           op.pod,
				LocalDuration: now.Sub(start),
				ctx:           op.span.Context(),
				Repl:          &replPayload{Bytes: op.wireBytes},
			})
			op.Finish()
		})
	})
}
