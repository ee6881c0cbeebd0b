package exp

import (
	"fmt"

	"cruz"
	"cruz/internal/apps/slm"
)

// RecoveryConfig is one automatic-recovery configuration to measure:
// how many replicas each checkpoint keeps and how many standby nodes
// are available as restart targets.
type RecoveryConfig struct {
	Replicas int
	Spares   int
}

// RecoveryRow reports one configuration's kill-and-recover run with the
// MTTR split into the phases §3's failure-handling design implies:
// lease-based detection, placement, image transfer (zero when the new
// home already replicates the image), and coordinated restart.
type RecoveryRow struct {
	Nodes    int
	Replicas int
	Spares   int

	DetectMs   float64
	PlaceMs    float64
	TransferMs float64
	RestartMs  float64
	MTTRMs     float64
	// TransferMB is what the recovery fetches actually moved.
	TransferMB float64
	// Target is the node the failed pod was re-homed to.
	Target string
}

// recoveryCluster deploys the slm ring on an auto-recovering cluster and
// takes one checkpoint, waiting until every pod-hosting agent has
// finished streaming its replicas so a node kill cannot outrun them.
// With traced set, the full tracing subsystem is on (sized so a
// kill-and-recover run cannot overflow the ring).
func recoveryCluster(n int, scale float64, cfg RecoveryConfig, traced bool) (*cruz.Cluster, error) {
	cl, err := cruz.New(cruz.Config{
		Nodes: n, Seed: int64(n)*101 + 7,
		Replicas: cfg.Replicas, AutoRecover: true, Spares: cfg.Spares,
		Trace: traced, TraceCapacity: 1 << 17,
	})
	if err != nil {
		return nil, err
	}
	wcfg := slmConfig(n, scale)
	var names []string
	var ips []cruz.Addr
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("slm-%d", i)
		pod, perr := cl.NewPod(i, name)
		if perr != nil {
			return nil, perr
		}
		names = append(names, name)
		ips = append(ips, pod.IP())
	}
	var workers []*slm.Worker
	for i, name := range names {
		w := slm.NewWorker(wcfg, i, ips[(i+1)%n])
		if _, err := cl.Pod(name).Spawn("slm", w); err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	job, err := cl.DefineJob("slm", names...)
	if err != nil {
		return nil, err
	}
	ok := cl.RunUntil(func() bool {
		for _, w := range workers {
			if w.StepsDone < 2 {
				return false
			}
		}
		return true
	}, 10*60*cruz.Second)
	if !ok {
		return nil, fmt.Errorf("exp: recovery slm ring never started (n=%d)", n)
	}
	res, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		return nil, err
	}
	// Gate on the coordinator's holder registry, not the agents' counters:
	// an agent counts a replication in the event that enqueues its
	// <holding> report, one network flight before the coordinator can
	// use the copy for placement — a node kill must not outrun that.
	ok = cl.RunUntil(func() bool {
		for _, name := range names {
			if cl.Coordinator.KnownHolders(name, res.Seq) < cfg.Replicas+1 {
				return false
			}
		}
		return true
	}, 60*cruz.Second)
	if !ok {
		return nil, fmt.Errorf("exp: recovery replication never completed (n=%d k=%d)", n, cfg.Replicas)
	}
	return cl, nil
}

// Recovery measures automatic failure recovery (§3): for each
// configuration it checkpoints the n-node slm ring with k replicas,
// kills a node mid-run, and reports the MTTR phase breakdown of the
// automatic restart. The shape claims: detection is bounded by the
// lease timeout regardless of configuration, and a replica-holding
// target makes the transfer phase free.
func Recovery(n int, scale float64, cfgs []RecoveryConfig) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, cfg := range cfgs {
		cl, err := recoveryCluster(n, scale, cfg, false)
		if err != nil {
			return nil, err
		}
		cl.FailNode(1)
		if !cl.AwaitRecovery(1, 60*cruz.Second) {
			return nil, fmt.Errorf("exp: recovery never completed (n=%d k=%d s=%d)", n, cfg.Replicas, cfg.Spares)
		}
		if err := cl.RecoveryErr(); err != nil {
			return nil, fmt.Errorf("exp: recovery n=%d k=%d s=%d: %w", n, cfg.Replicas, cfg.Spares, err)
		}
		res := cl.Recoveries()[0]
		// Prove the job actually resumed before reporting numbers.
		before := make([]int, n)
		resolve := func(i int) *slm.Worker {
			return cl.Pod(fmt.Sprintf("slm-%d", i)).Process(1).Program().(*slm.Worker)
		}
		for i := 0; i < n; i++ {
			before[i] = resolve(i).StepsDone
		}
		progressed := cl.RunUntil(func() bool {
			for i := 0; i < n; i++ {
				if resolve(i).StepsDone <= before[i] {
					return false
				}
			}
			return true
		}, 60*cruz.Second)
		if !progressed {
			return nil, fmt.Errorf("exp: ring stuck after recovery (n=%d k=%d s=%d)", n, cfg.Replicas, cfg.Spares)
		}
		live := make([]*slm.Worker, n)
		for i := 0; i < n; i++ {
			live[i] = resolve(i)
		}
		if err := checkWorkers(live); err != nil {
			return nil, err
		}
		target := ""
		if len(res.Pods) > 0 {
			target = res.Pods[0].To
		}
		rows = append(rows, RecoveryRow{
			Nodes:      n,
			Replicas:   cfg.Replicas,
			Spares:     cfg.Spares,
			DetectMs:   res.Detect.Milliseconds(),
			PlaceMs:    res.Place.Milliseconds(),
			TransferMs: res.Transfer.Milliseconds(),
			RestartMs:  res.Restart.Milliseconds(),
			MTTRMs:     res.MTTR.Milliseconds(),
			TransferMB: float64(res.TransferBytes) / (1 << 20),
			Target:     target,
		})
	}
	return rows, nil
}
