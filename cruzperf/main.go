// Command cruzperf is the repository benchmark: it deploys one of four
// workloads on the cruz facade, runs its checkpoint / restart /
// migration / recovery operations, and prints every metric by name with
// its unit and sample count, ending with one JSON line.
//
//	go run ./cruzperf --workload svc --seed 1 --seconds 15 --trace 0
//
// Each iteration sets the workload up afresh (set-up is timed as
// setup_s) and runs its timed phase. Iterations repeat until --seconds
// of wall-clock time have passed, at least two of them; set-up alone is
// then repeated until setup_s is a median of at least five (see
// setupBudget). Virtual-time metrics and
// deterministic layer counts must repeat bit for bit across the
// iterations of one seed, traced or not; any mismatch fails the run as
// nondeterminism.
//
// With --trace 0 the end-to-end metrics are reported. With --trace 1
// iterations alternate untraced and traced (Config.Trace, with a CPU
// profile of the timed phase), and the per-layer metrics are reported.
// cruzperf/run.sh builds the binary inside the checkout and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"

	cmetrics "cruz/internal/metrics"
	"cruz/internal/trace"
	"cruz/internal/trace/critpath"
)

// iteration is one set-up plus timed phase.
type iteration struct {
	traced   bool
	setupSec float64 // host CPU seconds
	hostSec  float64 // host CPU seconds of the timed phase
	virtSec  float64
	peakHeap float64 // MiB
	rec      *record
	det      map[string]float64 // everything that must repeat exactly
	phases   map[string]float64
	cpu      map[string]int64 // profile ns per layer (traced only)
}

// deploy sets the workload up and returns its environment and the host
// CPU seconds set-up took.
func deploy(wl *workload, seed int64, traced bool) (*env, float64, error) {
	e := &env{seed: seed, rng: rand.New(rand.NewSource(seed)), traced: traced, rec: newRecord()}
	runtime.GC() // collect the previous iteration's garbage outside the timing
	start := cpuNow()
	if err := wl.setup(e); err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", wl.name, err)
	}
	return e, cpuSince(start), nil
}

func runIteration(wl *workload, seed int64, traced bool, profDir string) (*iteration, error) {
	e, setup, err := deploy(wl, seed, traced)
	if err != nil {
		return nil, err
	}
	it := &iteration{traced: traced, setupSec: setup, rec: e.rec}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	e.rec.heapPoints = !traced
	c0, v0, steps0 := snapshot(e.cl), e.now(), e.ringSteps()
	runtime.GC()
	start := cpuNow()
	wl.run(e)
	e.rec.heapPoint()
	it.hostSec = cpuSince(start) - e.rec.gcSec
	it.peakHeap = e.rec.peakHeap
	c1 := snapshot(e.cl)
	it.virtSec = e.now().Sub(v0).Seconds()
	if traced {
		pprof.StopCPUProfile()
		if err := traceChecks(e, it); err != nil {
			return nil, err
		}
		cpu, err := attribute(prof.Bytes())
		if err != nil {
			return nil, err
		}
		it.cpu = cpu
		name := filepath.Join(profDir, fmt.Sprintf("%s-seed%d.pprof", wl.name, seed))
		if err := os.WriteFile(name, prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}

	it.det = layerCounts(c0, c1)
	if len(e.ring) > 0 {
		it.det["slm.steps"] = e.ringSteps() - steps0
	}
	for k, v := range e.rec.counts {
		it.det[k] = v
	}
	for k, v := range e.rec.samples {
		for i, x := range v {
			it.det[fmt.Sprintf("%s[%d]", k, i)] = x
		}
	}
	for _, k := range opKinds {
		it.det["ops."+k+"_attempted"] = float64(e.rec.attempted[k])
		it.det["ops."+k+"_failed"] = float64(e.rec.failed[k])
	}
	return it, nil
}

// traceChecks validates the traced run: nothing dropped, no span left
// open, and the recovery's critical path agreeing with its MTTR.
func traceChecks(e *env, it *iteration) error {
	tr := e.cl.Trace()
	if d := tr.Dropped(); d > 0 {
		return fmt.Errorf("trace ring dropped %d events; raise traceCapacity", d)
	}
	if n := tr.OpenSpans(); n > 0 {
		return fmt.Errorf("%d spans left open: %v", n, tr.OpenSpanNames())
	}
	events := tr.Events()
	it.phases = map[string]float64{}
	for _, row := range trace.PhaseBreakdown(events).Rows {
		it.phases[row.Phase] = row.MeanMs
	}
	if r := e.rec.recovery; r != nil {
		rep := critpath.Analyze(critpath.FindRoot(critpath.BuildTrees(events), "recovery"))
		if rep == nil {
			return fmt.Errorf("no recovery span tree in the trace")
		}
		var sum float64
		for _, s := range rep.Phases {
			sum += s.Ms
		}
		if mttr := r.MTTR.Milliseconds(); math.Abs(sum-mttr) > 0.01*mttr {
			return fmt.Errorf("recovery critical path sums to %.3f ms, MTTR is %.3f ms", sum, mttr)
		}
	}
	return nil
}

// An untraced run times at least minSetups set-ups, and more, up to
// maxSetups, until they add up to setupBudget host CPU seconds: a set-up
// of the small rings takes tens of milliseconds, too little for a median
// of five to be steady.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = 3.0
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd holds only metrics every workload measures: each run reports
// all of them, and none may read 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"sim_rate", "vs/s"}, {"peak_heap_mb", "MiB"},
	{"ckpt_ms", "ms"}, {"freeze_ms", "ms"}, {"coord_us", "us"},
	{"disk_mb_per_ckpt", "MiB"}, {"disrupt_ms", "ms"}, {"ok_ratio", "ratio"},
}

var perLayer = func() []metricDef {
	var m []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit})
		}
	}
	add("count", "sim.events")
	add("ns", "sim.host_ns_per_event")
	add("count", "slm.steps")
	add("MiB", "stream.mb")
	add("Mb/s", "stream.mbps")
	add("count", "kv.requests")
	add("ms", "kv.p50_ms", "kv.p99_ms", "kv.gen_late_ms")
	add("count", "kv.backlog", "tcpip.ip_sent", "tcpip.filter_drops")
	add("ratio", "tcpip.segpool_hit_ratio")
	add("count", "tcpip.no_socket_rsts", "ether.tx_frames")
	add("MiB", "ether.tx_mb")
	add("count", "ether.flooded", "ether.dropped")
	add("ms", "zap.freeze_min_ms")
	add("count", "mem.cow_faults", "kernel.steps", "kernel.syscalls")
	add("vs", "kernel.cpu_vs")
	add("MiB", "kernel.disk_write_mb", "kernel.disk_read_mb")
	add("count", "kernel.disk_ops")
	add("MiB", "ckpt.image_mb", "ckpt.new_chunk_mb")
	add("ratio", "ckpt.dedup_ratio")
	add("MiB", "ckpt.freed_mb")
	add("count", "core.coord_msgs")
	add("MiB", "core.repl_mb", "core.ec_shard_mb")
	add("count", "core.repl_failures", "core.ec_failures", "core.fetches", "core.reconstructed_chunks",
		"core.aborts", "core.migrate_rounds")
	add("MiB", "core.migrate_streamed_mb", "core.wire_mb_per_ckpt")
	add("ms", "core.migrate_down_ms", "core.restart_ms", "core.durable_lag_ms")
	for _, p := range phaseNames {
		add("ms", "phase."+p+"_ms")
	}
	add("ms", "rec.mttr_ms", "rec.detect_ms", "rec.place_ms", "rec.transfer_ms", "rec.reconstruct_ms", "rec.restart_ms")
	add("MiB", "rec.transfer_mb")
	add("ms", "call.checkpoint_host_ms", "call.restart_host_ms", "call.migrate_host_ms", "call.recover_host_ms")
	add("ms/vs", "call.run_host_ms_per_vs")
	add("%", "trace.overhead_pct")
	for _, l := range hostLayers {
		add("%", "host."+l+"_pct")
	}
	for _, k := range opKinds {
		add("count", "ops."+k+"_attempted", "ops."+k+"_failed")
	}
	add("ratio", "fail_ratio")
	return m
}()

var phaseNames = []string{"quiesce", "drain", "capture", "hash", "dedup", "write", "commit", "precopy-round", "residual-stop"}

// value is one reported metric with its sample count.
type value struct {
	v float64
	n int
}

func endToEndValues(its []*iteration, setups []float64) map[string]value {
	first := its[0].rec
	var rate, heap []float64
	for _, it := range its {
		rate = append(rate, it.virtSec/it.hostSec)
		heap = append(heap, it.peakHeap)
	}
	vt := func(name string) value {
		s := first.samples[name]
		return value{median(s), len(s)}
	}
	var attempted, failed int
	for _, it := range its {
		a, f := it.rec.totals()
		attempted, failed = attempted+a, failed+f
	}
	return map[string]value{
		"setup_s":          {median(setups), len(setups)},
		"sim_rate":         {median(rate), len(its)},
		"peak_heap_mb":     {median(heap), len(its)},
		"ckpt_ms":          vt("ckpt_ms"),
		"freeze_ms":        vt("freeze_ms"),
		"coord_us":         vt("coord_us"),
		"disk_mb_per_ckpt": vt("disk_mb_per_ckpt"),
		"disrupt_ms":       vt("disrupt_ms"),
		"ok_ratio":         {1 - float64(failed)/float64(attempted), attempted},
	}
}

func perLayerValues(its []*iteration) map[string]value {
	var plain, traced []*iteration
	for _, it := range its {
		if it.traced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}
	t := traced[0]
	out := map[string]value{}
	for _, m := range perLayer {
		if v, ok := t.det[m.name]; ok {
			out[m.name] = value{v, 1}
		} else {
			out[m.name] = value{0, 0}
		}
	}
	for name, s := range t.rec.samples {
		if _, ok := out[name]; ok {
			out[name] = value{median(s), len(s)}
		}
	}
	for _, p := range phaseNames {
		out["phase."+p+"_ms"] = value{t.phases[p], 1}
	}
	var kv cmetrics.Summary
	for _, x := range t.rec.samples["kv_ms"] {
		kv.Add(x)
	}
	out["kv.p50_ms"] = value{kv.Percentile(50), kv.N()}
	out["kv.p99_ms"] = value{kv.Percentile(99), kv.N()}
	var rateU, rateT, nsPerEvent []float64
	for _, it := range plain {
		rateU = append(rateU, it.virtSec/it.hostSec)
		nsPerEvent = append(nsPerEvent, it.hostSec*1e9/it.det["sim.events"])
	}
	for _, it := range traced {
		rateT = append(rateT, it.virtSec/it.hostSec)
	}
	out["sim.host_ns_per_event"] = value{median(nsPerEvent), len(plain)}
	out["trace.overhead_pct"] = value{(median(rateU)/median(rateT) - 1) * 100, len(its)}
	for _, kind := range []string{"checkpoint", "restart", "migrate", "recover"} {
		var ms []float64
		for _, it := range plain {
			for _, s := range it.rec.calls[kind] {
				ms = append(ms, s*1e3)
			}
		}
		out["call."+kind+"_host_ms"] = value{median(ms), len(ms)}
	}
	var runMs []float64
	for _, it := range plain {
		if v := it.rec.runVirt.Seconds(); v > 0 {
			runMs = append(runMs, sum(it.rec.calls["run"])*1e3/v)
		}
	}
	out["call.run_host_ms_per_vs"] = value{median(runMs), len(runMs)}
	cpu := map[string]int64{}
	var total int64
	for _, it := range traced {
		for l, ns := range it.cpu {
			cpu[l] += ns
			total += ns
		}
	}
	for _, l := range hostLayers {
		out["host."+l+"_pct"] = value{}
		if total > 0 {
			out["host."+l+"_pct"] = value{100 * float64(cpu[l]) / float64(total), len(traced)}
		}
	}
	attempted, failed := t.rec.totals()
	out["fail_ratio"] = value{float64(failed) / float64(attempted), attempted}
	return out
}

// determinismErrors compares every iteration's deterministic values with
// the first's.
func determinismErrors(its []*iteration) []string {
	var errs []string
	ref := its[0].det
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, it := range its[1:] {
		if len(it.det) != len(ref) {
			errs = append(errs, fmt.Sprintf("iteration %d reports %d deterministic values, iteration 0 %d", i+1, len(it.det), len(ref)))
		}
		for _, k := range keys {
			if v, ok := it.det[k]; !ok || v != ref[k] {
				errs = append(errs, fmt.Sprintf("iteration %d (traced=%v): %s = %v, iteration 0 had %v", i+1, it.traced, k, v, ref[k]))
			}
		}
	}
	return errs
}

// hostContext describes the machine and build, so host-cost drift can be
// told apart from a different host.
func hostContext() string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			rev += "+modified"
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: %s %s/%s NumCPU=%d GOMAXPROCS=%d cpu=%q commit=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, rev)
}

func main() {
	var (
		name    = flag.String("workload", "svc", "workload: svc, slm, failover or wide")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "wall-clock seconds to keep repeating iterations")
		traced  = flag.Int("trace", 0, "1 = alternate traced iterations and report per-layer metrics")
		profDir = flag.String("profiles", ".bench_build/profiles", "directory for the traced runs' CPU profiles")
	)
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "cruzperf: need --workload svc|slm|failover|wide and --trace 0|1\n")
		os.Exit(2)
	}
	if *traced == 1 {
		if err := os.MkdirAll(*profDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "cruzperf:", err)
			os.Exit(1)
		}
	}

	fmt.Println("#", hostContext())
	// Timed iterations repeat until the wall-clock budget is spent: at
	// least two untraced (so the determinism gate has a pair to compare)
	// or one untraced+traced pair. Extra set-ups then bring setup_s to a
	// median of at least minSetups.
	var its []*iteration
	var setups []float64
	start := wallNow()
	for len(its) < 2 || wallSince(start) < *seconds {
		for _, tr := range []bool{false, true}[:1+*traced] {
			it, err := runIteration(wl, *seed, tr, *profDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cruzperf:", err)
				os.Exit(1)
			}
			for _, e := range it.rec.errs {
				fmt.Printf("# %s iteration %d: %s\n", wl.name, len(its), e)
			}
			its = append(its, it)
			setups = append(setups, it.setupSec)
		}
	}
	for *traced == 0 && (len(setups) < minSetups || sum(setups) < setupBudget && len(setups) < maxSetups) {
		_, s, err := deploy(wl, *seed, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cruzperf:", err)
			os.Exit(1)
		}
		setups = append(setups, s)
	}

	errs := determinismErrors(its)
	for _, e := range errs {
		fmt.Println("# NONDETERMINISM:", e)
	}
	defs, vals := endToEnd, map[string]value{}
	if *traced == 1 {
		defs, vals = perLayer, perLayerValues(its)
	} else {
		vals = endToEndValues(its, setups)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: len(errs) == 0, Metrics: map[string]jm{}}
	fmt.Printf("# %s seed=%d iterations=%d (%s)\n", wl.name, *seed, len(its), map[bool]string{false: "untraced", true: "untraced+traced"}[*traced == 1])
	for _, d := range defs {
		v := vals[d.name]
		fmt.Printf("# %-28s %14.6g %-6s n=%d\n", d.name, v.v, d.unit, v.n)
		out.Metrics[d.name] = jm{v.v, d.unit}
		if *traced == 0 && v.n == 0 {
			// Every workload measures every end-to-end metric; none
			// left means the operation behind it never succeeded.
			fmt.Printf("# MISSING: %s has no samples\n", d.name)
			out.Correct = false
		}
	}
	for _, it := range its {
		a, f := it.rec.totals()
		out.Attempted, out.Failed = out.Attempted+a, out.Failed+f
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cruzperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}
