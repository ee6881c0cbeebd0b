package core

import (
	"cruz/internal/ckpt"
	"cruz/internal/ctl"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/trace"
	"cruz/internal/zap"
)

// The round driver. A checkpoint and a live migration run the same
// steps on the source: optional live pre-copy rounds, then the frozen
// residual. Each step captures, plans and saves its image locally, then
// hands it to the op's sink. A checkpoint's images are home once saved;
// a migration streams each one on to the destination agent, where the
// restart install step restores the pod. Migration is checkpoint +
// transfer + restore.

// roundSink is where a round-driven op's saved images go. Besides the
// stream it names the failure reply and the phase spans, which keep the
// names each protocol has always traced under.
type roundSink struct {
	// peer streams every saved round and the residual to op.migrateTo
	// and ends the residual in the migrate-restore handover, instead of
	// reporting <done>.
	peer bool
	// failMsg is the reply type that reports a failed op.
	failMsg msgType
	// Phase span names: a live round; the freeze without and with
	// rounds before it; the settle window between stop and copy ("" =
	// not traced); the residual capture and its write.
	round, quiesce, stop, drain, capture, write string
}

var (
	storeSink = &roundSink{failMsg: msgDone, round: "precopy-round", quiesce: "quiesce",
		stop: "residual-stop", drain: "drain", capture: "capture", write: "write"}
	peerSink = &roundSink{peer: true, failMsg: msgMigrateSrcDone, round: "migrate-round", quiesce: "migrate-freeze",
		stop: "migrate-freeze", capture: "residual-capture", write: "residual-stream"}
)

// phase begins a phase span under parent: inert when tracing is off or
// name is empty.
func (a *Agent) phase(parent trace.SpanContext, name, pod string, args ...trace.Arg) trace.Span {
	if name == "" || !a.tr.Enabled() {
		return trace.Span{}
	}
	return a.tr.BeginChild(parent, a.kern.Name(), trace.PhaseCat, name, append([]trace.Arg{trace.Str("pod", pod)}, args...)...)
}

// beginRoundOp registers a round-driven op for m.Pod that hands its
// images to sink. A nil op means the failure is already reported.
func (a *Agent) beginRoundOp(kind string, c msgSink, m *wireMsg, sink *roundSink) (*zap.Pod, *agentOp) {
	pod, ok := a.pods[m.Pod]
	if !ok || pod.Destroyed() {
		a.fail(c, sink.failMsg, m, ErrUnknownPod)
		return nil, nil
	}
	op, err := a.beginPodOp(kind, m, c)
	if err != nil {
		a.fail(c, sink.failMsg, m, err)
		return nil, nil
	}
	op.sink = sink
	return pod, op
}

// failRound fails the op and reports the failure on c.
func (a *Agent) failRound(c msgSink, m *wireMsg, op *agentOp, err error) {
	op.Fail(err)
	a.fail(c, op.sink.failMsg, m, err)
}

// runRounds drives one live pre-copy round (numbered from 0) and
// recurses, or hands off to the residual freeze once the policy says
// another round is not worth taking. The pod runs — and keeps
// communicating — throughout; each round captures a COW snapshot of the
// pages dirtied since the previous round and saves it as an incremental
// image chained on baseSeq (0 = this round is the full base of a fresh
// chain). The next round starts once the sink has the image: a peer
// sink paces the rounds by the stream as the disk paces a checkpoint's.
func (a *Agent) runRounds(c msgSink, m *wireMsg, pod *zap.Pod, op *agentOp, round, prevPages, baseSeq int) {
	if op.Aborted() {
		return
	}
	if round == 0 && m.Incremental {
		// Chain round 0 onto the newest stored checkpoint, if any: the
		// dirty bits are relative to the last capture, which is exactly
		// what the store last registered.
		if s, ok := a.store.LatestSeq(m.Pod); ok {
			baseSeq = s
		}
	}
	full := baseSeq == 0
	candidate := pod.DirtyPages()
	if full {
		candidate = pod.ResidentPages()
	}
	converged := round >= m.PrecopyRounds ||
		(m.PrecopyThresholdPages > 0 && candidate <= m.PrecopyThresholdPages) ||
		(m.PrecopyMinGain > 0 && round > 0 &&
			float64(candidate) > (1-m.PrecopyMinGain)*float64(prevPages))
	if converged {
		a.runResidual(c, m, pod, op, baseSeq)
		return
	}

	// Rounds occupy the sequence block below the residual's m.Seq.
	seqR := m.Seq - m.PrecopyRounds + round
	op.phRound = a.phase(op.span.Context(), op.sink.round, m.Pod,
		trace.Int("round", int64(round)), trace.Int("pages", int64(candidate)))
	lc, err := ckpt.CaptureLive(pod, seqR, ckpt.Options{Incremental: !full, Hashes: m.Dedup, BaseSeq: baseSeq})
	if err != nil {
		a.failRound(c, m, op, err)
		return
	}
	op.rounds = append(op.rounds, lc)
	op.redirty = append(op.redirty, lc.Redirty)
	op.roundPages = append(op.roundPages, candidate)
	captureBytes := int64(lc.Pages()) * mem.PageSize
	// The snapshot is instant; the copy out of it costs CPU while the
	// pod runs (writes to not-yet-released pages take COW faults — the
	// concurrency overhead of §5.2, charged by the kernel).
	a.cpu.Do(a.params.CaptureCost+bytesCost(captureBytes, a.params.CaptureBPS), func() {
		if op.Aborted() {
			return
		}
		a.planImage(m, op, lc.Image, func(plan *ckpt.SavePlan, err error) {
			if op.Aborted() {
				return
			}
			if err != nil {
				a.failRound(c, m, op, err)
				return
			}
			op.roundSeqs = append(op.roundSeqs, seqR)
			a.streamPlan(m.Pipeline, op, plan.TotalBytes, func() {
				a.deliver(c, m, op, seqR, func() {
					lc.Release()
					op.phRound.End(trace.Int("bytes", plan.TotalBytes))
					a.runRounds(c, m, pod, op, round+1, candidate, seqR)
				})
			})
		})
	})
}

// runResidual is the freeze: disable communication, stop the pod,
// capture, plan, save, and hand the image to the sink. Without rounds
// it saves what the request asks for (a plain checkpoint chains an
// incremental on seq-1); after them it saves only the residual dirty
// set, chained on the last round at baseSeq.
func (a *Agent) runResidual(c msgSink, m *wireMsg, pod *zap.Pod, op *agentOp, baseSeq int) {
	incremental, freeze := m.Incremental, op.sink.quiesce
	if op.epoch {
		// The residual is incremental on the last round (or on the
		// stored base when the policy skipped every round); a fresh
		// chain whose round 0 never ran stays a full save.
		incremental, freeze = baseSeq > 0, op.sink.stop
	}
	op.phQuiesce = a.phase(op.span.Context(), freeze, m.Pod)

	// Step 1: configure the filter to silently drop all pod traffic.
	a.cpu.Do(a.params.FilterCost, func() {
		if op.Aborted() {
			return
		}
		op.filterID = a.kern.Stack().Filter().AddDropAddr(pod.IP())
		if a.tr.Enabled() {
			a.tr.InstantCtx(op.span.Context(), a.kern.Name(), "core", "filter.install", trace.Str("pod", m.Pod))
		}
		if op.optimized && !op.cow {
			// Fig. 4: notify as soon as communication is disabled,
			// without waiting for the local save.
			c.send(&wireMsg{Type: msgCommDisabled, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context()})
		}
		// Step 2: stop the pod's processes and take the local checkpoint.
		pod.Stop(func() {
			if op.Aborted() {
				return
			}
			op.stoppedAt = a.kern.Engine().Now()
			op.phQuiesce.End()
			// In Cruz the filter drops in-flight pod traffic rather than
			// flushing it; the "drain" phase is the settle window between
			// full quiesce and the start of the state copy (the serialized
			// in-kernel walk of process and socket structures).
			op.phDrain = a.phase(op.span.Context(), op.sink.drain, m.Pod, trace.Str("mode", "drop"))
			// The capture window scales with the bytes copied (full:
			// resident pages; incremental: dirty pages only).
			var captureBytes int64
			for _, vpid := range pod.VPIDs() {
				as := pod.Process(vpid).Mem()
				if incremental {
					captureBytes += int64(as.DirtyBytes())
				} else {
					captureBytes += int64(as.ResidentBytes())
				}
			}
			op.roundPages = append(op.roundPages, int(captureBytes/mem.PageSize))
			a.cpu.Do(a.params.CaptureCost+bytesCost(captureBytes, a.params.CaptureBPS), func() {
				if op.Aborted() {
					return
				}
				op.phDrain.End()
				op.phCapture = a.phase(op.span.Context(), op.sink.capture, m.Pod)
				img, err := ckpt.Capture(pod, m.Seq, ckpt.Options{Incremental: incremental, Hashes: m.Dedup, BaseSeq: baseSeq})
				if err != nil {
					a.failRound(c, m, op, err)
					return
				}
				op.phCapture.End(trace.Int("mem_bytes", img.MemoryBytes()))
				op.captured = true
				if op.epoch {
					// The residual's capture cleared dirty bits for pages
					// whose image would vanish if the epoch aborts.
					op.redirty = append(op.redirty, func() {
						for i := range img.Processes {
							pi := &img.Processes[i]
							if proc := pod.Process(pi.VPID); proc != nil {
								for _, pn := range pi.Memory.PageNums {
									proc.Mem().MarkDirty(pn)
								}
							}
						}
					})
				}
				if op.cow {
					// §5.2 copy-on-write optimization: the captured copy
					// is consistent the moment it exists; the pod may
					// resume (once the coordinator confirms every node
					// has captured) while the image write proceeds from
					// the snapshot.
					op.phCommit = a.phase(op.span.Context(), "commit", m.Pod, trace.Str("mode", "cow"))
					c.send(&wireMsg{Type: msgCommDisabled, Seq: m.Seq, Pod: m.Pod, ctx: op.span.Context()})
					a.maybeFinishContinue(m.Pod, pod, op)
				}
				a.planImage(m, op, img, func(plan *ckpt.SavePlan, err error) {
					if op.Aborted() {
						return
					}
					if err != nil {
						a.failRound(c, m, op, err)
						return
					}
					if op.epoch {
						// Until the commit, the residual is part of the
						// abortable epoch like the rounds before it.
						op.roundSeqs = append(op.roundSeqs, m.Seq)
					}
					op.phWrite = a.phase(op.span.Context(), op.sink.write, m.Pod)
					a.streamPlan(m.Pipeline, op, plan.TotalBytes, func() {
						a.deliver(c, m, op, m.Seq, func() {
							op.phWrite.End(trace.Int("bytes", plan.TotalBytes))
							if op.sink.peer {
								a.handOver(c, m, op)
								return
							}
							a.imageSaved(c, m, pod, op, plan)
						})
					})
				})
			})
		})
	})
}

// planImage turns a captured image into a store plan — monolithic blob,
// or (Dedup) hash + chunk-table dedup charged as their own phases — and
// hands the plan to finishPlan. Shared by every round and the residual.
func (a *Agent) planImage(m *wireMsg, op *agentOp, img *ckpt.Image, finishPlan func(*ckpt.SavePlan, error)) {
	if !m.Dedup {
		plan, err := a.store.PlanSave(img)
		finishPlan(plan, err)
		return
	}
	// Hash phase: only pages written since the last hashing capture had
	// a stale cached hash; they alone cost CPU here.
	op.phHash = a.phase(op.span.Context(), "hash", m.Pod)
	a.cpu.Do(bytesCost(int64(img.FreshHashes)*mem.PageSize, a.params.HashBPS), func() {
		if op.Aborted() {
			return
		}
		op.phHash.End(trace.Int("fresh_pages", int64(img.FreshHashes)))
		var pages int64
		for i := range img.Processes {
			pages += int64(img.Processes[i].Memory.NumPages())
		}
		op.phDedup = a.phase(op.span.Context(), "dedup", m.Pod)
		a.cpu.Do(sim.Duration(pages)*a.params.DedupPerChunk, func() {
			if op.Aborted() {
				return
			}
			plan, err := a.store.PlanDedupSave(img)
			if err == nil {
				op.phDedup.End(
					trace.Int("new_chunks", int64(plan.Stats.NewChunks)),
					trace.Int("dup_chunks", int64(plan.Stats.DupChunks)))
			} else {
				op.phDedup.End(trace.Str("err", err.Error()))
			}
			finishPlan(plan, err)
		})
	})
}

// streamPlan drives total bytes through the store's disk, invoking
// complete once the last segment lands. Without pipeline the bytes go as
// one segment (serial encode, then write); with it, SegmentBytes-sized
// segments stream so segment k is encoded on the daemon CPU while
// segment k-1 is on the disk, and contiguous segments pay the
// positioning latency once.
func (a *Agent) streamPlan(pipeline bool, op *agentOp, total int64, complete func()) {
	disk := a.store.Disk()
	segSize := total
	if pipeline && a.params.SegmentBytes > 0 && a.params.SegmentBytes < total {
		segSize = a.params.SegmentBytes
	}
	if total <= 0 {
		complete()
		return
	}
	var issued, landed int64
	var issue func()
	issue = func() {
		if op.Aborted() || issued >= total {
			return
		}
		seg := segSize
		if total-issued < seg {
			seg = total - issued
		}
		issued += seg
		a.cpu.Do(bytesCost(seg, a.params.EncodeBPS), func() {
			if op.Aborted() {
				return
			}
			disk.WriteContig(seg, func() {
				if op.Aborted() {
					return
				}
				landed += seg
				if landed == total {
					complete()
				}
			})
			issue()
		})
	}
	issue()
}

// deliver hands the locally saved image seq to the op's sink, then
// calls next. A checkpoint's image is home already. A migration pushes
// it into the destination's store through the offer/want/data delta
// exchange and continues once the destination has adopted it.
func (a *Agent) deliver(c msgSink, m *wireMsg, op *agentOp, seq int, next func()) {
	if !op.sink.peer {
		next()
		return
	}
	if op.Aborted() {
		return
	}
	cc, err := a.peerConn(op.migrateTo)
	if err != nil {
		a.failRound(c, m, op, err)
		return
	}
	ro := a.push(cc, m.Pod, seq, op.span.Context(), &durOp{peer: op.migrateTo, tier: ctl.TierStream, onDone: func(n int64, rerr error) {
		op.stream = nil
		if op.Aborted() {
			return
		}
		if rerr != nil {
			a.failRound(c, m, op, rerr)
			return
		}
		op.streamed += n
		next()
	}})
	if ro != nil && ro.Active() {
		op.stream = ro
	}
}

// releaseEpoch drops the source side of a round-driven op's epoch: the
// rounds' COW snapshots (writes stop faulting) and the uncommitted
// images in the store. An abort also re-marks the pages whose only
// saved copy is being thrown away; a committed migration has nothing
// left to re-mark, since the pod lives on elsewhere.
func (a *Agent) releaseEpoch(name string, op *agentOp, redirty bool) {
	for _, lc := range op.rounds {
		lc.Release()
	}
	if redirty {
		for _, fn := range op.redirty {
			fn()
		}
	}
	if len(op.roundSeqs) > 0 {
		a.store.Discard(name, op.roundSeqs...)
	}
	op.rounds, op.redirty, op.roundSeqs = nil, nil, nil
}
