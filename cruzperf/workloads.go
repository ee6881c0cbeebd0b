package main

import (
	"fmt"
	"math/rand"

	"cruz"
	"cruz/internal/apps/kvstore"
	"cruz/internal/apps/slm"
	"cruz/internal/apps/stream"
	"cruz/internal/ether"
	"cruz/internal/sim"
)

func init() {
	cruz.RegisterProgram(&slm.Worker{})
	cruz.RegisterProgram(&stream.Sender{})
	cruz.RegisterProgram(&stream.Receiver{})
	cruz.RegisterProgram(&kvstore.Server{})
}

// workload is one benchmark input set: how to deploy it (set-up, timed
// as setup_s) and the operations its timed phase runs. Every workload
// reports every end-to-end metric, so each one checkpoints and runs one
// disruptive operation (disrupt_ms).
type workload struct {
	name  string
	setup func(e *env) error
	run   func(e *env)
}

var workloads = []*workload{
	{name: "svc", setup: setupSvc, run: runSvc},
	{
		name:  "slm",
		setup: func(e *env) error { return setupRing(e, cruz.Config{Nodes: 8}, fig5Ring(8)) },
		run:   runSlm,
	},
	{
		name: "failover",
		setup: func(e *env) error {
			return setupRing(e, cruz.Config{Nodes: 8, Spares: 1, EC: cruz.ECParams{M: 4, R: 2}, AutoRecover: true}, fig5Ring(8))
		},
		run: runFailover,
	},
	{
		name: "wide",
		setup: func(e *env) error {
			return setupRing(e, cruz.Config{Nodes: 256, GroupSize: 16, Replicas: 1}, lightRing(256))
		},
		run: runWide,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one deployed instance of a workload plus everything the
// benchmark measures on it.
type env struct {
	seed   int64
	rng    *rand.Rand // derives the workload's inputs from the seed
	traced bool
	cl     *cruz.Cluster
	job    *cruz.Job
	ring   []string // slm pod names
	kv     *kvSender
	rec    *record

	// Durability configuration, for the durability check.
	replicas int
	ec       cruz.ECParams
}

func (e *env) now() sim.Time { return e.cl.Engine.Now() }

// jitter returns a seed-derived offset in [0, max).
func (e *env) jitter(max sim.Duration) sim.Duration {
	return sim.Duration(e.rng.Int63n(int64(max)))
}

// runTo advances virtual time to t.
func (e *env) runTo(t sim.Time) {
	if d := t.Sub(e.now()); d > 0 {
		start := cpuNow()
		e.cl.Run(d)
		e.rec.call("run", start, d)
	}
}

// --- Facade calls, each timed on the host and accounted as an op. ---

func (e *env) checkpoint(opts cruz.CheckpointOptions) *cruz.CheckpointResult {
	disk := e.diskWritten()
	start := cpuNow()
	res, err := e.cl.Checkpoint(e.job, opts)
	e.rec.call("checkpoint", start, 0)
	e.rec.heapPoint()
	if !e.rec.op("ckpt", err) {
		return nil
	}
	e.rec.add("ckpt_ms", res.Latency.Milliseconds())
	e.rec.add("freeze_ms", res.MaxBlocked.Milliseconds())
	e.rec.add("zap.freeze_min_ms", res.MinBlocked.Milliseconds())
	e.rec.add("coord_us", res.Overhead.Microseconds())
	e.rec.add("ckpt.image_mb", mib(res.TotalImageBytes))
	e.rec.add("disk_mb_per_ckpt", mib(int64(e.diskWritten()-disk)))
	e.rec.count("core.coord_msgs", float64(res.Messages))
	return res
}

// awaitDurable waits up to bound for every pod of the checkpoint to be
// held by Replicas+1 agents (or, under EC, by all M+R shard positions),
// as the coordinator's placement registry records it. A miss is a failed
// durable op: recovery could not rely on that checkpoint.
func (e *env) awaitDurable(res *cruz.CheckpointResult, wire0 int64, bound sim.Duration) {
	if res == nil {
		return
	}
	start := e.now()
	held := func() bool {
		for _, p := range e.job.Members {
			if e.ec.Enabled() {
				if e.cl.Coordinator.KnownECShards(p.Pod, res.Seq) < e.ec.M+e.ec.R {
					return false
				}
			} else if e.cl.Coordinator.KnownHolders(p.Pod, res.Seq) < e.replicas+1 {
				return false
			}
		}
		return true
	}
	hostStart := cpuNow()
	ok := e.cl.RunUntil(held, bound)
	e.rec.call("run", hostStart, e.now().Sub(start))
	if ok {
		e.rec.op("durable", nil)
		e.rec.add("core.durable_lag_ms", e.now().Sub(start).Milliseconds())
	} else {
		e.rec.op("durable", fmt.Errorf("checkpoint %d under-replicated after %v", res.Seq, bound))
	}
	e.rec.add("core.wire_mb_per_ckpt", mib(e.durabilityBytes()-wire0))
}

func (e *env) migrate(pod string, target int, opts cruz.MigrateOptions) {
	start := cpuNow()
	res, err := e.cl.Migrate(e.job, pod, target, opts)
	e.rec.call("migrate", start, 0)
	e.rec.heapPoint()
	if !e.rec.op("migrate", err) {
		return
	}
	e.rec.add("disrupt_ms", res.Downtime.Milliseconds())
	e.rec.add("core.migrate_down_ms", res.Downtime.Milliseconds())
	e.rec.count("core.migrate_rounds", float64(res.Rounds))
	e.rec.count("core.migrate_streamed_mb", mib(res.BytesStreamed))
}

func (e *env) restart() {
	start := cpuNow()
	res, err := e.cl.Restart(e.job, 0)
	e.rec.call("restart", start, 0)
	e.rec.heapPoint()
	if e.rec.op("restart", err) {
		e.rec.add("disrupt_ms", res.Latency.Milliseconds())
		e.rec.add("core.restart_ms", res.Latency.Milliseconds())
	}
}

// failAndRecover kills a pod-hosting node and waits for the automatic
// recovery. The kill lands on a fixed phase of the coordinator's
// heartbeat grid so failure detection time does not depend on how long
// the preceding checkpoints took.
func (e *env) failAndRecover(node int) {
	const beat = 100 * sim.Millisecond
	at := (e.now()/sim.Time(beat) + 1) * sim.Time(beat)
	e.runTo(at.Add(beat / 2))
	e.cl.FailNode(node)
	start := cpuNow()
	ok := e.cl.AwaitRecovery(1, 10*cruz.Second)
	e.rec.call("recover", start, 0)
	e.rec.heapPoint()
	err := e.cl.RecoveryErr()
	if err == nil && !ok {
		err = fmt.Errorf("recovery did not complete")
	}
	if !e.rec.op("recover", err) {
		return
	}
	r := e.cl.Recoveries()[0]
	e.rec.recovery = r
	e.rec.add("disrupt_ms", r.MTTR.Milliseconds())
	e.rec.add("rec.mttr_ms", r.MTTR.Milliseconds())
	e.rec.add("rec.detect_ms", r.Detect.Milliseconds())
	e.rec.add("rec.place_ms", r.Place.Milliseconds())
	e.rec.add("rec.transfer_ms", r.Transfer.Milliseconds())
	e.rec.add("rec.reconstruct_ms", r.Reconstruct.Milliseconds())
	e.rec.add("rec.restart_ms", r.Restart.Milliseconds())
	e.rec.add("rec.transfer_mb", mib(r.TransferBytes))
}

func (e *env) diskWritten() uint64 {
	var n uint64
	for _, node := range e.cl.Nodes {
		n += node.Kernel.Disk().Stats.BytesWritten
	}
	return n
}

func (e *env) durabilityBytes() int64 {
	var n int64
	for _, node := range e.cl.Nodes {
		n += node.Agent.Stats.ReplBytes + node.Agent.Stats.ECShardBytes
	}
	return n
}

// --- slm rings (slm, failover, wide) ---

// fig5Ring is the paper's Fig. 5 job with 6 MiB grids (the paper's
// pods hold 100 MB; larger grids push the benchmark's peak memory past
// a gigabyte), salted per rank so dedup cannot fold one pod's pages
// into another's.
func fig5Ring(n int) slm.Config {
	cfg := slm.DefaultConfig(n)
	cfg.Steps = 0
	cfg.GridBytes = 6 << 20
	cfg.TotalComputePerStep = 226 * sim.Millisecond
	cfg.StepOverhead = 23 * sim.Millisecond
	cfg.DirtyPagesPerStep = 64
	cfg.UniquePages = true
	return cfg
}

// lightRing is the A9 scaling workload: small grids keep 256 pods'
// images cheap while every pod still computes, exchanges halos and
// saves real state.
func lightRing(n int) slm.Config {
	return slm.Config{
		Workers:             n,
		TotalComputePerStep: 2 * sim.Millisecond,
		StepOverhead:        200 * sim.Microsecond,
		HaloBytes:           1 << 10,
		GridBytes:           64 << 10,
		DirtyPagesPerStep:   4,
		Port:                9300,
	}
}

// setupRing deploys one slm rank per application node and warms the
// ring up until every rank has stepped twice. The seed varies the grid
// and the pages each step dirties by up to 1.5%. It leaves the step time
// alone: a checkpoint first waits for each rank's current compute step
// to end, so the step phase at which checkpoints land must not move with
// the seed.
func setupRing(e *env, cfg cruz.Config, wcfg slm.Config) error {
	cfg.Seed = e.seed
	if err := e.newCluster(cfg); err != nil {
		return err
	}
	wcfg.GridBytes += uint64(e.rng.Intn(int(wcfg.GridBytes/4096/64)+1)) * 4096
	wcfg.DirtyPagesPerStep += e.rng.Intn(wcfg.DirtyPagesPerStep/64 + 1)
	n := cfg.Nodes
	ips := make([]cruz.Addr, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("slm-%03d", i)
		pod, err := e.cl.NewPod(i, name)
		if err != nil {
			return err
		}
		e.ring = append(e.ring, name)
		ips[i] = pod.IP()
	}
	for i, name := range e.ring {
		if _, err := e.cl.Pod(name).Spawn("slm", slm.NewWorker(wcfg, i, ips[(i+1)%n])); err != nil {
			return err
		}
	}
	job, err := e.cl.DefineJob("ring", e.ring...)
	if err != nil {
		return err
	}
	e.job = job
	ok := e.cl.RunUntil(func() bool {
		for _, w := range e.workers() {
			if w == nil || w.StepsDone < 2 {
				return false
			}
		}
		return true
	}, 10*cruz.Second)
	if !ok {
		return fmt.Errorf("slm ring never reached steady state")
	}
	return nil
}

// newCluster builds the workload's cluster on gigabit links whose
// one-way latency the seed draws from [5, 5.5) µs, so that fixed-cost
// protocol timings such as coord_us also vary with the input.
func (e *env) newCluster(cfg cruz.Config) error {
	cfg.Link = ether.GigabitLink
	cfg.Link.Latency += e.jitter(cfg.Link.Latency / 10)
	cfg.Trace = e.traced
	cfg.TraceCapacity = traceCapacity
	cl, err := cruz.New(cfg)
	if err != nil {
		return err
	}
	e.cl = cl
	e.replicas, e.ec = cfg.Replicas, cfg.EC
	return nil
}

// workers resolves every rank's current incarnation (restores replace
// the program value).
func (e *env) workers() []*slm.Worker {
	out := make([]*slm.Worker, len(e.ring))
	for i, name := range e.ring {
		if pod := e.cl.Pod(name); pod != nil {
			if p := pod.Process(1); p != nil {
				out[i], _ = p.Program().(*slm.Worker)
			}
		}
	}
	return out
}

func (e *env) ringSteps() float64 {
	var n int
	for _, w := range e.workers() {
		if w != nil {
			n += w.StepsDone
		}
	}
	return float64(n)
}

// checkRing runs the ring for a while and requires every rank to be
// fault-free and to have made progress: the integrity op.
func (e *env) checkRing(d sim.Duration) {
	before := make([]int, len(e.ring))
	for i, w := range e.workers() {
		if w != nil {
			before[i] = w.StepsDone
		}
	}
	e.runTo(e.now().Add(d))
	var err error
	for i, w := range e.workers() {
		switch {
		case w == nil:
			err = fmt.Errorf("rank %d has no process", i)
		case w.Fault != "":
			err = fmt.Errorf("rank %d fault: %s", i, w.Fault)
		case w.StepsDone <= before[i]:
			err = fmt.Errorf("rank %d made no progress", i)
		}
		if err != nil {
			break
		}
	}
	e.rec.op("integrity", err)
}

// midStep advances to the middle of rank 0's next compute step. A
// checkpoint freezes each rank only once its current compute step ends,
// so where in the step it lands sets a large share of ckpt_ms; pinning
// that phase keeps it from moving with the seed.
func (e *env) midStep() {
	start, v0 := cpuNow(), e.now()
	rank0 := func() *slm.Worker { return e.workers()[0] }
	if w := rank0(); w != nil {
		n := w.StepsDone
		for e.now().Sub(v0) < sim.Second {
			if w := rank0(); w == nil || w.StepsDone != n {
				break
			}
			e.cl.Run(500 * sim.Microsecond)
		}
		e.cl.Run(w.Cfg.TotalComputePerStep / sim.Duration(w.Cfg.Workers) / 2)
	}
	e.rec.call("run", start, e.now().Sub(v0))
}

// slm: a first full checkpoint, then incremental dedup+pipelined ones at
// a fixed interval; then every pod is destroyed and the job restarts
// from the newest chain.
func runSlm(e *env) {
	const ckpts, interval = 4, 800 * sim.Millisecond
	t0 := e.now()
	for i := 0; i < ckpts; i++ {
		e.runTo(t0.Add(sim.Duration(i) * interval))
		e.midStep()
		e.checkpoint(cruz.CheckpointOptions{Dedup: true, Pipeline: true, Incremental: i > 0})
	}
	e.runTo(e.now().Add(interval / 2))
	for _, name := range e.ring {
		e.cl.Pod(name).Destroy()
	}
	e.restart()
	e.checkRing(300 * sim.Millisecond)
}

// failover: dedup checkpoints distributed as 4+2 erasure-coded shards,
// each awaited until every shard position is registered; then a pod
// host fails and the job is reconstructed and restarted elsewhere.
func runFailover(e *env) {
	const ckpts, interval = 2, 800 * sim.Millisecond
	t0 := e.now()
	opts := cruz.CheckpointOptions{Dedup: true}
	for i := 0; i < ckpts; i++ {
		e.runTo(t0.Add(sim.Duration(i) * interval))
		e.midStep()
		wire := e.durabilityBytes()
		e.awaitDurable(e.checkpoint(opts), wire, 5*cruz.Second)
	}
	e.failAndRecover(1)
	e.checkRing(300 * sim.Millisecond)
}

// wide: tree-coordinated checkpoints of a 256-pod ring, each followed by
// the durability check; then every pod is destroyed and the job restarts
// through the tree from the newest checkpoint.
func runWide(e *env) {
	const ckpts, interval = 3, 100 * sim.Millisecond
	t0 := e.now().Add(e.jitter(sim.Millisecond))
	for i := 0; i < ckpts; i++ {
		e.runTo(t0.Add(sim.Duration(i) * interval))
		wire := e.durabilityBytes()
		e.awaitDurable(e.checkpoint(cruz.CheckpointOptions{}), wire, 200*sim.Millisecond)
	}
	e.runTo(e.now().Add(interval / 2))
	for _, name := range e.ring {
		e.cl.Pod(name).Destroy()
	}
	e.restart()
	e.checkRing(300 * sim.Millisecond)
}

// --- svc: a live service under checkpoint and migration ---

const (
	kvPort   = kvstore.DefaultPort
	kvRate   = 2000 // requests per virtual second
	ballast  = 2 << 20
	svcNodes = 4
)

func setupSvc(e *env) error {
	if err := e.newCluster(cruz.Config{Nodes: svcNodes, Seed: e.seed}); err != nil {
		return err
	}
	db, err := e.cl.NewPod(0, "db")
	if err != nil {
		return err
	}
	if _, err := db.Spawn("kvstore", kvstore.NewServer(kvPort)); err != nil {
		return err
	}
	rx, err := e.cl.NewPod(2, "rx")
	if err != nil {
		return err
	}
	recv := stream.NewReceiver(0)
	recv.Ballast = ballast + uint64(e.rng.Intn(8))*4096
	if _, err := rx.Spawn("receiver", recv); err != nil {
		return err
	}
	tx, err := e.cl.NewPod(1, "tx")
	if err != nil {
		return err
	}
	send := stream.NewSender(cruz.AddrPort{Addr: rx.IP(), Port: stream.DefaultPort})
	send.Ballast = ballast + uint64(e.rng.Intn(8))*4096
	if _, err := tx.Spawn("sender", send); err != nil {
		return err
	}
	job, err := e.cl.DefineJob("svc", "db", "tx", "rx")
	if err != nil {
		return err
	}
	e.job = job
	work := kvWork{
		Seed:     uint64(e.seed),
		Keys:     4096,
		Start:    e.now().Add(20*sim.Millisecond + e.jitter(sim.Second/kvRate)),
		Interval: sim.Second / kvRate,
	}
	e.kv = &kvSender{Work: work, Server: cruz.AddrPort{Addr: db.IP(), Port: kvPort}, Recv: &kvReceiver{Work: work}}
	e.cl.Service.Kernel.Spawn("kv-send", e.kv, 0)
	ok := e.cl.RunUntil(func() bool { return e.kv.Recv.Answered() >= 200 && e.streamRx() > 0 }, 10*cruz.Second)
	if !ok {
		return fmt.Errorf("svc never reached steady state")
	}
	return nil
}

func (e *env) streamRx() uint64 {
	if p := e.cl.Pod("rx").Process(1); p != nil {
		if r, ok := p.Program().(*stream.Receiver); ok {
			return r.Received
		}
	}
	return 0
}

func (e *env) streamFault() string {
	for _, name := range []string{"tx", "rx"} {
		p := e.cl.Pod(name).Process(1)
		if p == nil {
			return name + " has no process"
		}
		switch v := p.Program().(type) {
		case *stream.Sender:
			if v.Fault != "" {
				return "sender: " + v.Fault
			}
		case *stream.Receiver:
			if v.Fault != "" {
				return "receiver: " + v.Fault
			}
		}
	}
	return ""
}

// svc: pre-copy checkpoints at a fixed interval under the open-loop kv
// load and the stream, then a live migration of the database pod to
// another node and back. The interval leaves most requests undisturbed,
// so kv.p50_ms reads the quiet path and kv.p99_ms the checkpoint
// disruption.
func runSvc(e *env) {
	const ckpts, interval = 2, 600 * sim.Millisecond
	t0 := e.now()
	rx0, kv0 := e.streamRx(), e.kv.Recv.Answered()
	first := t0.Add(50*sim.Millisecond + e.jitter(sim.Millisecond))
	opts := cruz.CheckpointOptions{Precopy: cruz.PrecopyConfig{MaxRounds: 3, DirtyThresholdPages: 16, MinRoundGain: 0.2}}
	for i := 0; i < ckpts; i++ {
		e.runTo(first.Add(sim.Duration(i) * interval))
		e.checkpoint(opts)
	}
	mopts := cruz.MigrateOptions{Precopy: cruz.PrecopyConfig{MaxRounds: 10, DirtyThresholdPages: 16}}
	e.runTo(first.Add(ckpts * interval))
	e.migrate("db", svcNodes-1, mopts)
	e.runTo(first.Add(ckpts*interval + interval/2))
	e.migrate("db", 0, mopts)
	e.runTo(first.Add(ckpts*interval + interval))
	end := e.now()
	e.rec.add("stream.mbps", float64(e.streamRx()-rx0)*8/1e6/end.Sub(t0).Seconds())
	e.rec.count("stream.mb", mib(int64(e.streamRx()-rx0)))

	// Stop the generator and let the replies drain; whatever is still
	// unanswered is backlog.
	e.kv.Stop = true
	recv := e.kv.Recv
	e.cl.RunUntil(func() bool { return recv.Answered() >= e.kv.Issued() }, 2*cruz.Second)
	for _, l := range recv.Latency[kv0:] {
		e.rec.add("kv_ms", l.Milliseconds())
	}
	backlog := e.kv.Issued() - recv.Answered()
	e.rec.count("kv.requests", float64(recv.Answered()-kv0))
	e.rec.count("kv.backlog", float64(backlog))
	e.rec.count("kv.gen_late_ms", e.kv.MaxLate.Milliseconds())
	e.rec.ops("kv", int(e.kv.Issued()-kv0), int(backlog))
	var err error
	switch {
	case e.kv.Fault != "":
		err = fmt.Errorf("kv sender: %s", e.kv.Fault)
	case recv.Fault != "":
		err = fmt.Errorf("kv receiver: %s", recv.Fault)
	case e.streamFault() != "":
		err = fmt.Errorf("stream %s", e.streamFault())
	case e.cl.Pod("db").Process(1) == nil:
		err = fmt.Errorf("kv server gone")
	}
	if err == nil {
		if s, ok := e.cl.Pod("db").Process(1).Program().(*kvstore.Server); ok && s.Fault != "" {
			err = fmt.Errorf("kv server: %s", s.Fault)
		}
	}
	e.rec.op("integrity", err)
}

// traceCapacity keeps Tracer.Dropped() at zero for every workload's
// traced run (checked after the run).
const traceCapacity = 1 << 18
