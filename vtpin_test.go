package cruz_test

import (
	"fmt"
	"testing"

	"cruz"
)

// The results below are virtual time and therefore a pure function of
// the seed: any difference is a behaviour change of the checkpoint or
// migration protocol, never noise. They pin the shared pre-copy round
// driver (live rounds, convergence, residual freeze) through both of its
// sinks — the local store of a checkpoint and the peer stream of a
// migration — so a refactor of either must reproduce them to the
// nanosecond.

const pinSeed = 17

// pinCluster builds the 4-node migrateSlm ring every pinned case runs on.
func pinCluster(t *testing.T, replicas int) (*cruz.Cluster, *cruz.Job) {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: 4, Seed: pinSeed, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	_, job := deployRingCfg(t, cl, migrateSlm(3))
	cl.Run(300 * cruz.Millisecond)
	return cl, job
}

// pinCheckpoint renders a CheckpointResult's measurements.
func pinCheckpoint(r *cruz.CheckpointResult) string {
	return fmt.Sprintf("seq=%d lat=%d cycle=%d local=%d cont=%d maxblk=%d minblk=%d ovh=%d msgs=%d bytes=%d",
		r.Seq, r.Latency, r.CycleLatency, r.MaxLocalCheckpoint, r.MaxLocalContinue,
		r.MaxBlocked, r.MinBlocked, r.Overhead, r.Messages, r.TotalImageBytes)
}

// pinMigration renders a MigrationResult's measurements.
func pinMigration(r *cruz.MigrationResult) string {
	return fmt.Sprintf("seq=%d rounds=%d pages=%v streamed=%d down=%d lat=%d msgs=%d",
		r.Seq, r.Rounds, r.RoundPages, r.BytesStreamed, r.Downtime, r.Latency, r.Messages)
}

// TestPinnedCheckpointResults: a full checkpoint, a plain incremental
// one (which chains onto seq-1, not onto a looked-up base), then an
// incremental pre-copy checkpoint whose rounds converge by threshold or
// by the minimum-gain rule.
func TestPinnedCheckpointResults(t *testing.T) {
	cl, job := pinCluster(t, 0)
	var got []string
	for _, opts := range []cruz.CheckpointOptions{
		{},
		{Incremental: true},
		{Incremental: true, Dedup: true, Precopy: cruz.PrecopyConfig{MaxRounds: 3, DirtyThresholdPages: 16, MinRoundGain: 0.2}},
	} {
		r, err := cl.Checkpoint(job, opts)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pinCheckpoint(r))
		cl.Run(100 * cruz.Millisecond)
	}
	want := []string{
		"seq=1 lat=45810340 cycle=46008828 local=45616852 cont=65000 maxblk=45686973 minblk=45646973 ovh=326976 msgs=12 bytes=12599176",
		"seq=2 lat=14019405 cycle=14217893 local=13825885 cont=65000 maxblk=13117703 minblk=13077703 ovh=327008 msgs=12 bytes=2663209",
		"seq=6 lat=12654832 cycle=12853304 local=12461072 cont=65000 maxblk=4620123 minblk=4580123 ovh=327232 msgs=12 bytes=57334",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("checkpoint %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// pinMigrate checkpoints the ring (awaiting the replicas, if any), runs
// on and migrates wb from node 1 to node 3.
func pinMigrate(t *testing.T, replicas int, opts cruz.MigrateOptions) string {
	t.Helper()
	cl, job := pinCluster(t, replicas)
	ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replicas > 0 && !cl.RunUntil(func() bool {
		return cl.Coordinator.KnownHolders("wb", ck.Seq) >= replicas+1
	}, 10*cruz.Second) {
		t.Fatal("replication never completed")
	}
	cl.Run(200 * cruz.Millisecond)
	r, err := cl.Migrate(job, "wb", 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pinMigration(r)
}

// TestPinnedMigrationResults: a live pre-copy migration, a stop-and-copy
// one, and a live one whose round 0 reuses the destination's replica of
// the newest checkpoint as its base.
func TestPinnedMigrationResults(t *testing.T) {
	live := cruz.MigrateOptions{Precopy: cruz.PrecopyConfig{MaxRounds: 6, DirtyThresholdPages: 32}}
	for _, c := range []struct {
		name     string
		replicas int
		opts     cruz.MigrateOptions
		want     string
	}{
		{"live", 0, live, "seq=8 rounds=3 pages=[1024 248 72 32] streamed=5647621 down=12603349 lat=198721332 msgs=5"},
		{"stop-and-copy", 0, cruz.MigrateOptions{}, "seq=2 rounds=0 pages=[1024] streamed=4209128 down=129544279 lat=130155686 msgs=5"},
		{"base-reuse", 2, live, "seq=8 rounds=4 pages=[244 72 84 36 24] streamed=1894621 down=11667510 lat=124845138 msgs=5"},
	} {
		if got := pinMigrate(t, c.replicas, c.opts); got != c.want {
			t.Errorf("%s migration:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

// pinRecovery renders a RecoveryResult's measurements.
func pinRecovery(r *cruz.RecoveryResult) string {
	return fmt.Sprintf("seq=%d mttr=%d detect=%d place=%d transfer=%d restart=%d reconstruct=%d bytes=%d pods=%+v",
		r.Seq, r.MTTR, r.Detect, r.Place, r.Transfer, r.Restart, r.Reconstruct, r.TransferBytes, r.Pods)
}

// pinRecover deploys a 3-worker ring, takes one checkpoint, waits for
// its durability copies to register, kills the given nodes in order
// (lease expiry between them) and returns the first recovery's result.
func pinRecover(t *testing.T, cfg cruz.Config, dedup bool, kill ...int) string {
	t.Helper()
	cfg.Seed, cfg.AutoRecover = pinSeed, true
	cl, err := cruz.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, job := deployRing(t, cl, 3)
	cl.Run(200 * cruz.Millisecond)
	ck, err := cl.Checkpoint(job, cruz.CheckpointOptions{Dedup: dedup})
	if err != nil {
		t.Fatal(err)
	}
	if !cl.RunUntil(func() bool {
		for _, name := range names {
			if cfg.EC.Enabled() && cl.Coordinator.KnownECShards(name, ck.Seq) < cfg.EC.M+cfg.EC.R {
				return false
			}
			if !cfg.EC.Enabled() && cl.Coordinator.KnownHolders(name, ck.Seq) < cfg.Replicas+1 {
				return false
			}
		}
		return true
	}, 30*cruz.Second) {
		t.Fatal("durability never completed")
	}
	for i, n := range kill {
		if i > 0 {
			cl.Run(600 * cruz.Millisecond)
		}
		cl.FailNode(n)
	}
	if !cl.AwaitRecovery(1, 30*cruz.Second) {
		t.Fatal("automatic recovery never completed")
	}
	if err := cl.RecoveryErr(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	return pinRecovery(cl.Recoveries()[0])
}

// TestPinnedRecoveryResults pins the three recovery routes: the new home
// already holds a full replica (no transfer), a full replica is fetched
// onto a spare, and a 4+2 erasure-coded image is rebuilt from the shard
// subsets of four surviving holders.
func TestPinnedRecoveryResults(t *testing.T) {
	ec, err := cruz.ParseECParams("4+2")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cfg   cruz.Config
		dedup bool
		kill  []int
		want  string
	}{
		{"replica-hit", cruz.Config{Nodes: 3, Replicas: 1}, false, []int{1},
			"seq=1 mttr=421904200 detect=399826848 place=40000 transfer=0 restart=22037352 reconstruct=0 bytes=0 pods=[{Pod:wb From:node2 To:node2 Transferred:false Reconstructed:false}]"},
		{"replica-fetch", cruz.Config{Nodes: 3, Replicas: 1, Spares: 1}, false, []int{1},
			"seq=1 mttr=435403626 detect=399820000 place=40000 transfer=24309654 restart=11233972 reconstruct=0 bytes=1051693 pods=[{Pod:wb From:node2 To:node3 Transferred:true Reconstructed:false}]"},
		{"ec-reconstruct", cruz.Config{Nodes: 8, EC: ec}, true, []int{4, 1},
			"seq=1 mttr=422191197 detect=399820000 place=40000 transfer=17308535 restart=5022662 reconstruct=4132057 bytes=76767 pods=[{Pod:wb From:node2 To:node3 Transferred:true Reconstructed:true}]"},
	} {
		if got := pinRecover(t, c.cfg, c.dedup, c.kill...); got != c.want {
			t.Errorf("%s recovery:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}
