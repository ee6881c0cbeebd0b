package ckpt

import (
	"errors"
	"io"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/kernel"
	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
	"cruz/internal/zap"
)

func init() {
	RegisterProgram(&memWorker{})
	RegisterProgram(&podServer{})
	RegisterProgram(&pipePair{})
	RegisterProgram(&shmSemWorker{})
}

type rig struct {
	t       testing.TB
	engine  *sim.Engine
	sw      *ether.Switch
	kernels []*kernel.Kernel
	nics    []*ether.NIC
	store   *Store
}

func newRig(t testing.TB, nodes int) *rig {
	t.Helper()
	r := &rig{t: t, engine: sim.NewEngine(21)}
	r.sw = ether.NewSwitch(r.engine)
	for i := 0; i < nodes; i++ {
		mac := ether.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		nic := ether.NewNIC(r.engine, "eth0", mac)
		r.sw.Attach(nic, ether.GigabitLink)
		st := tcpip.NewStack(r.engine, "node")
		if _, err := st.AddInterface("eth0", tcpip.Addr{10, 0, 0, byte(i + 1)}, mac, nic, false); err != nil {
			t.Fatal(err)
		}
		r.kernels = append(r.kernels, kernel.New(r.engine, "node", kernel.DefaultParams(), st))
		r.nics = append(r.nics, nic)
	}
	r.store = NewStore(r.kernels[0].Disk())
	return r
}

func (r *rig) run(d sim.Duration) {
	r.t.Helper()
	if err := r.engine.RunFor(d); err != nil {
		r.t.Fatal(err)
	}
}

func podIP(i int) tcpip.Addr { return tcpip.Addr{10, 0, 1, byte(i + 1)} }
func podMAC(i int) ether.MAC { return ether.MAC{2, 0, 0, 1, 0, byte(i + 1)} }

// stopAndCapture freezes pod traffic, stops the pod, and captures it.
func (r *rig) stopAndCapture(pod *zap.Pod, seq int, opts Options) *Image {
	r.t.Helper()
	f := pod.Kernel().Stack().Filter()
	rule := f.AddDropAddr(pod.IP())
	stopped := false
	pod.Stop(func() { stopped = true })
	r.run(50 * sim.Millisecond)
	if !stopped {
		r.t.Fatal("pod did not quiesce")
	}
	img, err := Capture(pod, seq, opts)
	if err != nil {
		r.t.Fatalf("Capture: %v", err)
	}
	f.RemoveRule(rule)
	return img
}

// memWorker allocates a heap, stamps pages each iteration, and advances a
// counter both in program state and in memory.
type memWorker struct {
	Heap     uint64
	HeapSize uint64
	Iter     uint64
	MyPID    int
}

func (w *memWorker) Step(ctx *kernel.ProcContext) kernel.StepResult {
	m := ctx.Mem()
	if w.Heap == 0 {
		base, err := m.Alloc(w.HeapSize, "heap")
		if err != nil {
			return kernel.Exit(0, 1)
		}
		w.Heap = base
	}
	w.MyPID = ctx.PID()
	w.Iter++
	// Stamp a rotating page plus the counter cell.
	page := (w.Iter % (w.HeapSize / mem.PageSize)) * mem.PageSize
	if err := m.WriteUint64(w.Heap+page, w.Iter); err != nil {
		return kernel.Exit(0, 1)
	}
	if err := m.WriteUint64(w.Heap, w.Iter); err != nil {
		return kernel.Exit(0, 1)
	}
	return kernel.Sleep(100*sim.Microsecond, sim.Millisecond)
}

func TestCheckpointRestartSameNode(t *testing.T) {
	r := newRig(t, 1)
	pod, err := zap.New(r.kernels[0], "w", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	if err != nil {
		t.Fatal(err)
	}
	w := &memWorker{HeapSize: 64 * mem.PageSize}
	if _, err := pod.Spawn("worker", w); err != nil {
		t.Fatal(err)
	}
	r.run(100 * sim.Millisecond)
	img := r.stopAndCapture(pod, 1, Options{})
	iterAtCkpt := w.Iter
	if iterAtCkpt == 0 {
		t.Fatal("worker never ran")
	}

	pod.Destroy()
	r.run(sim.Millisecond)
	pod2, err := Restore(r.kernels[0], img)
	if err != nil {
		t.Fatal(err)
	}
	if !pod2.Stopped() {
		t.Fatal("restored pod should be stopped")
	}
	w2, okProg := pod2.Process(1).Program().(*memWorker)
	if !okProg {
		t.Fatalf("restored program has type %T", pod2.Process(1).Program())
	}
	if w2 == w {
		t.Fatal("restore aliased the original program value")
	}
	if w2.Iter != iterAtCkpt {
		t.Fatalf("restored Iter = %d, want %d", w2.Iter, iterAtCkpt)
	}
	// Memory round trip: counter cell matches the program counter.
	v, err := pod2.Process(1).Mem().ReadUint64(w2.Heap)
	if err != nil {
		t.Fatal(err)
	}
	if v != iterAtCkpt {
		t.Fatalf("restored memory counter = %d, want %d", v, iterAtCkpt)
	}

	pod2.Resume()
	r.run(100 * sim.Millisecond)
	if w2.Iter <= iterAtCkpt {
		t.Fatal("restored worker did not continue")
	}
	if w.Iter != iterAtCkpt {
		t.Fatal("original program value advanced after destroy")
	}
}

func TestRestartSurvivesPIDReuse(t *testing.T) {
	// The Zap headline: restart works even when the saved pids are in
	// use, because applications only ever see virtual pids.
	r := newRig(t, 2)
	pod, _ := zap.New(r.kernels[0], "w", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 4 * mem.PageSize}
	pod.Spawn("worker", w)
	r.run(50 * sim.Millisecond)
	if w.MyPID != 1 {
		t.Fatalf("worker vpid = %d", w.MyPID)
	}
	img := r.stopAndCapture(pod, 1, Options{})
	pod.Destroy()

	// Node 1 already has busy processes occupying low pids.
	for i := 0; i < 7; i++ {
		r.kernels[1].Spawn("squatter", &memWorker{HeapSize: mem.PageSize}, 0)
	}
	r.run(10 * sim.Millisecond)

	pod2, err := Restore(r.kernels[1], img)
	if err != nil {
		t.Fatal(err)
	}
	pod2.Resume()
	r.run(50 * sim.Millisecond)
	w2 := pod2.Process(1).Program().(*memWorker)
	if w2.MyPID != 1 {
		t.Fatalf("restored worker sees pid %d, want its old virtual pid 1", w2.MyPID)
	}
	if pod2.Process(1).PID() == 1 {
		t.Fatal("test is vacuous: physical pid 1 was free on the target")
	}
}

// podServer accepts one connection and echoes forever (like the kernel
// test's echo server, but checkpoint-registered).
type podServer struct {
	Port   uint16
	Phase  int
	LFD    int
	CFD    int
	Buf    []byte
	Echoed int
}

func (p *podServer) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch p.Phase {
	case 0:
		fd, err := ctx.Listen(tcpip.AddrPort{Port: p.Port}, 4)
		if err != nil {
			return kernel.Exit(0, 1)
		}
		p.LFD = fd
		p.Phase = 1
		return kernel.Continue(0)
	case 1:
		cfd, err := ctx.Accept(p.LFD)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, p.LFD)
		}
		if err != nil {
			return kernel.Exit(0, 1)
		}
		p.CFD = cfd
		p.Phase = 2
		return kernel.Continue(0)
	case 2:
		buf := make([]byte, 4096)
		n, err := ctx.Recv(p.CFD, buf, false)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnRead(0, p.CFD)
		}
		if err == io.EOF {
			return kernel.Exit(0, 0)
		}
		if err != nil {
			return kernel.Exit(0, 1)
		}
		p.Buf = buf[:n]
		p.Phase = 3
		return kernel.Continue(5 * sim.Microsecond)
	default:
		n, err := ctx.Send(p.CFD, p.Buf)
		if err == kernel.ErrWouldBlock {
			return kernel.BlockOnWrite(0, p.CFD)
		}
		if err != nil {
			return kernel.Exit(0, 1)
		}
		p.Echoed += n
		p.Buf = p.Buf[n:]
		if len(p.Buf) == 0 {
			p.Phase = 2
		}
		return kernel.Continue(0)
	}
}

func TestMigrateNetworkedPod(t *testing.T) {
	// A pod echo server migrates from node0 to node2 while an external
	// client (on node1, not under any checkpoint control) is mid-stream.
	// The client must notice nothing except a pause.
	r := newRig(t, 3)
	pod, _ := zap.New(r.kernels[0], "srv", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	server := &podServer{Port: 7}
	pod.Spawn("echod", server)
	r.run(20 * sim.Millisecond)

	// Raw tcpip client on node1 so we control pacing precisely.
	clientStack := r.kernels[1].Stack()
	conn, err := clientStack.DialTCP(tcpip.AddrPort{}, tcpip.AddrPort{Addr: podIP(0), Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	r.run(20 * sim.Millisecond)
	if conn.State() != tcpip.StateEstablished {
		t.Fatalf("client not established: %v", conn.State())
	}

	// Stream some data and read echoes.
	payload := make([]byte, 30000)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	sent, recvd := 0, 0
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 8192)
	pump := func(budget int) {
		for steps := 0; steps < budget; steps++ {
			if sent < len(payload) {
				if n, err := conn.Send(payload[sent:]); err == nil {
					sent += n
				}
			}
			if n, err := conn.Recv(buf, false); err == nil {
				got = append(got, buf[:n]...)
				recvd += n
			}
			r.run(2 * sim.Millisecond)
			if recvd >= len(payload) {
				return
			}
		}
	}
	pump(20) // partial exchange before migration

	img := r.stopAndCapture(pod, 1, Options{})
	pod.Destroy()
	pod2, err := Restore(r.kernels[2], img)
	if err != nil {
		t.Fatal(err)
	}
	pod2.Resume()

	pump(3000)
	if recvd != len(payload) {
		t.Fatalf("client received %d of %d echoed bytes across migration", recvd, len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("echoed byte %d corrupted across migration", i)
		}
	}
	if conn.Err() != nil {
		t.Fatalf("client connection saw error: %v", conn.Err())
	}
	// The server program really is running on the new node.
	s2 := pod2.Process(1).Program().(*podServer)
	if s2.Echoed < len(payload) {
		t.Fatalf("restored server echoed %d", s2.Echoed)
	}
}

// pipePair is a single process owning both ends of a pipe: it writes
// Total bytes and reads them back, one chunk per step.
type pipePair struct {
	RFD, WFD int
	Init     bool
	Total    int
	Written  int
	Read     int
	Sum      uint32
}

func (p *pipePair) Step(ctx *kernel.ProcContext) kernel.StepResult {
	if !p.Init {
		r, w, err := ctx.Pipe()
		if err != nil {
			return kernel.Exit(0, 1)
		}
		p.RFD, p.WFD, p.Init = r, w, true
		return kernel.Continue(0)
	}
	if p.Written < p.Total {
		chunk := make([]byte, 100)
		for i := range chunk {
			chunk[i] = byte(p.Written + i)
		}
		if n, err := ctx.Send(p.WFD, chunk); err == nil {
			p.Written += n
		}
		return kernel.Continue(10 * sim.Microsecond)
	}
	buf := make([]byte, 64)
	n, err := ctx.Recv(p.RFD, buf, false)
	if err == kernel.ErrWouldBlock {
		return kernel.BlockOnRead(0, p.RFD)
	}
	if err != nil {
		return kernel.Exit(0, 1)
	}
	for _, b := range buf[:n] {
		p.Sum += uint32(b)
	}
	p.Read += n
	if p.Read >= p.Total {
		return kernel.Exit(0, 0)
	}
	return kernel.Continue(0)
}

func TestPipeContentsSurviveRestart(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "p", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	prog := &pipePair{Total: 5000}
	pod.Spawn("pair", prog)
	// Let it write everything into the pipe but stop before it reads much.
	r.run(200 * sim.Microsecond)
	img := r.stopAndCapture(pod, 1, Options{})
	if prog.Written == 0 {
		t.Fatal("nothing written before checkpoint")
	}
	if prog.Read >= prog.Total {
		t.Fatal("checkpoint landed after the interesting window")
	}
	if len(img.Processes) != 1 || len(img.Pipes) != 1 {
		t.Fatalf("image: %d procs, %d pipes", len(img.Processes), len(img.Pipes))
	}
	readAt := prog.Read
	pod.Destroy()
	pod2, err := Restore(r.kernels[0], img)
	if err != nil {
		t.Fatal(err)
	}
	p2 := pod2.Process(1).Program().(*pipePair)
	pod2.Resume()
	r.run(sim.Second)
	if p2.Read != p2.Total {
		t.Fatalf("restored pair read %d of %d (was %d at ckpt)", p2.Read, p2.Total, readAt)
	}
	// Byte-sum check proves contents, not just counts, survived.
	var want uint32
	for w := 0; w < p2.Total; w += 100 {
		for i := 0; i < 100; i++ {
			want += uint32(byte(w + i))
		}
	}
	if p2.Sum != want {
		t.Fatalf("pipe contents corrupted: sum %d, want %d", p2.Sum, want)
	}
}

// shmSemWorker increments a counter in shared memory under a semaphore,
// ID 1 or 2 alternating via the semaphore token.
type shmSemWorker struct {
	Shm, Sem int
	Init     bool
	Target   uint64
	Done     bool
}

func (w *shmSemWorker) Step(ctx *kernel.ProcContext) kernel.StepResult {
	if !w.Init {
		var err error
		if w.Shm, err = ctx.ShmGet(42, 4096); err != nil {
			return kernel.Exit(0, 1)
		}
		if w.Sem, err = ctx.SemGet(43, 1); err != nil {
			return kernel.Exit(0, 1)
		}
		w.Init = true
		return kernel.Continue(0)
	}
	if err := ctx.SemOp(w.Sem, -1); err == kernel.ErrWouldBlock {
		return kernel.BlockOnSem(0, w.Sem)
	} else if err != nil {
		return kernel.Exit(0, 1)
	}
	var cell [8]byte
	ctx.ShmRead(w.Shm, 0, cell[:])
	v := uint64(cell[0]) | uint64(cell[1])<<8 | uint64(cell[2])<<16 | uint64(cell[3])<<24 |
		uint64(cell[4])<<32 | uint64(cell[5])<<40 | uint64(cell[6])<<48 | uint64(cell[7])<<56
	if v >= w.Target {
		ctx.SemOp(w.Sem, 1)
		w.Done = true
		return kernel.Exit(0, 0)
	}
	v++
	for i := range cell {
		cell[i] = byte(v >> (8 * i))
	}
	ctx.ShmWrite(w.Shm, 0, cell[:])
	ctx.SemOp(w.Sem, 1)
	return kernel.Sleep(10*sim.Microsecond, 100*sim.Microsecond)
}

func TestShmAndSemSurviveRestart(t *testing.T) {
	r := newRig(t, 2)
	pod, _ := zap.New(r.kernels[0], "ipc", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w1 := &shmSemWorker{Target: 500}
	w2 := &shmSemWorker{Target: 500}
	pod.Spawn("w1", w1)
	pod.Spawn("w2", w2)
	r.run(5 * sim.Millisecond)
	// Track the pod's IPC objects (apps normally do this via the batch
	// layer; tests do it directly).
	pod.TrackShm(w1.Shm)
	pod.TrackSem(w1.Sem)
	r.run(10 * sim.Millisecond)

	img := r.stopAndCapture(pod, 1, Options{})
	pod.Destroy()
	pod2, err := Restore(r.kernels[1], img)
	if err != nil {
		t.Fatal(err)
	}
	pod2.Resume()
	r.run(2 * sim.Second)
	var done []*shmSemWorker
	for _, vpid := range []int{1, 2} {
		if p := pod2.Process(vpid); p != nil {
			done = append(done, p.Program().(*shmSemWorker))
		}
	}
	// Both workers must have finished (exited) and the final counter must
	// be exactly Target — proving the counter continued from its
	// checkpointed value rather than restarting at zero.
	if len(pod2.VPIDs()) != 0 {
		t.Fatalf("workers still alive after 2s: %v", pod2.VPIDs())
	}
	seg := r.kernels[1].Shm(img.Shms[0].ID)
	var cell [8]byte
	seg.Read(0, cell[:])
	v := uint64(cell[0]) | uint64(cell[1])<<8
	if v != 500 {
		t.Fatalf("final shared counter = %d, want 500", v)
	}
	_ = done
}

func TestPendingSignalsPreserved(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "s", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	vpid, _ := pod.Spawn("w", &memWorker{HeapSize: mem.PageSize})
	r.run(5 * sim.Millisecond)
	pod.Stop(nil)
	r.run(5 * sim.Millisecond)
	// Queue a user signal on the stopped process, then capture.
	r.kernels[0].Signal(pod.Process(vpid).PID(), kernel.SIGUSR1)
	img, err := Capture(pod, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pod.Destroy()
	pod2, _ := Restore(r.kernels[0], img)
	sigs := pod2.Process(vpid).PendingSignals()
	if len(sigs) != 1 || sigs[0] != kernel.SIGUSR1 {
		t.Fatalf("restored signals = %v", sigs)
	}
}

func TestCaptureRequiresStoppedPod(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "x", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	pod.Spawn("w", &memWorker{HeapSize: mem.PageSize})
	r.run(sim.Millisecond)
	if _, err := Capture(pod, 1, Options{}); !errors.Is(err, ErrPodNotStopped) {
		t.Fatalf("capture of running pod = %v", err)
	}
}

func TestIncrementalCheckpointShrinksAndMerges(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "inc", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 256 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(50 * sim.Millisecond) // dirties ~50 pages

	full := r.stopAndCapture(pod, 1, Options{})
	pod.Resume()
	r.run(5 * sim.Millisecond) // dirties ~5 more pages

	inc := r.stopAndCapture(pod, 2, Options{Incremental: true})
	if !inc.Incremental || inc.BaseSeq != 1 {
		t.Fatalf("increment metadata: %+v", inc)
	}
	if inc.MemoryBytes() >= full.MemoryBytes() {
		t.Fatalf("increment (%d B) not smaller than full (%d B)", inc.MemoryBytes(), full.MemoryBytes())
	}
	iterAtInc := w.Iter
	pod.Destroy()

	merged, err := Merge(full, inc)
	if err != nil {
		t.Fatal(err)
	}
	pod2, err := Restore(r.kernels[0], merged)
	if err != nil {
		t.Fatal(err)
	}
	w2 := pod2.Process(1).Program().(*memWorker)
	if w2.Iter != iterAtInc {
		t.Fatalf("merged restore Iter = %d, want %d", w2.Iter, iterAtInc)
	}
	// Every stamped page must hold its stamp (catches missing base pages).
	for i := uint64(1); i <= w2.Iter; i++ {
		page := (i % 256) * mem.PageSize
		v, err := pod2.Process(1).Mem().ReadUint64(w2.Heap + page)
		if err != nil {
			t.Fatal(err)
		}
		// The cell holds the latest iteration that stamped this page.
		want := i
		for j := i + 256; j <= w2.Iter; j += 256 {
			want = j
		}
		if page == 0 {
			continue // page 0 also holds the counter cell
		}
		if v != want {
			t.Fatalf("page %d: stamp = %d, want %d", page/mem.PageSize, v, want)
		}
	}
	pod2.Resume()
	r.run(10 * sim.Millisecond)
	if w2.Iter <= iterAtInc {
		t.Fatal("restored-from-merge worker did not continue")
	}
}

func TestMergeRejectsWrongBase(t *testing.T) {
	a := &Image{PodName: "x", Seq: 1}
	inc := &Image{PodName: "x", Seq: 3, BaseSeq: 2, Incremental: true}
	if _, err := Merge(a, inc); err == nil {
		t.Fatal("merge with wrong base accepted")
	}
	if _, err := Merge(nil, inc); err == nil {
		t.Fatal("merge with nil base accepted")
	}
}

func TestRestoreRejectsIncremental(t *testing.T) {
	r := newRig(t, 1)
	img := &Image{PodName: "x", Seq: 2, BaseSeq: 1, Incremental: true}
	if _, err := Restore(r.kernels[0], img); err == nil {
		t.Fatal("restore of raw incremental image accepted")
	}
}

func TestStoreTimingScalesWithImageSize(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "big", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 2048 * mem.PageSize}
	pod.Spawn("w", w)
	// Dirty many pages quickly.
	r.run(400 * sim.Millisecond)
	img := r.stopAndCapture(pod, 1, Options{})

	var doneAt sim.Time
	var gotSize int64
	start := r.engine.Now()
	r.store.Save(img, func(size int64, err error) {
		if err != nil {
			t.Errorf("save: %v", err)
		}
		doneAt, gotSize = r.engine.Now(), size
	})
	r.run(10 * sim.Second)
	if gotSize < img.MemoryBytes() {
		t.Fatalf("encoded size %d < memory bytes %d", gotSize, img.MemoryBytes())
	}
	elapsed := doneAt.Sub(start)
	// 110 MB/s + 4 ms latency.
	wantXfer := sim.Duration(gotSize * int64(sim.Second) / (110 << 20))
	want := wantXfer + 4*sim.Millisecond
	if elapsed != want {
		t.Fatalf("save took %v, want %v for %d bytes", elapsed, want, gotSize)
	}

	// Load round trip.
	var loaded *Image
	r.store.LoadLatest("big", func(img *Image, err error) {
		if err != nil {
			t.Errorf("load: %v", err)
		}
		loaded = img
	})
	r.run(10 * sim.Second)
	if loaded == nil || loaded.Seq != 1 || len(loaded.Processes) != 1 {
		t.Fatalf("loaded = %+v", loaded)
	}
}

func TestStoreLoadMergedChain(t *testing.T) {
	r := newRig(t, 1)
	pod, _ := zap.New(r.kernels[0], "chain", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 64 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(20 * sim.Millisecond)

	save := func(img *Image) {
		saved := false
		r.store.Save(img, func(int64, error) { saved = true })
		r.run(10 * sim.Second)
		if !saved {
			t.Fatal("save never completed")
		}
	}
	save(r.stopAndCapture(pod, 1, Options{}))
	pod.Resume()
	r.run(10 * sim.Millisecond)
	save(r.stopAndCapture(pod, 2, Options{Incremental: true}))
	pod.Resume()
	r.run(10 * sim.Millisecond)
	save(r.stopAndCapture(pod, 3, Options{Incremental: true}))
	finalIter := w.Iter
	pod.Destroy()

	var merged *Image
	r.store.LoadLatest("chain", func(img *Image, err error) {
		if err != nil {
			t.Errorf("LoadLatest: %v", err)
		}
		merged = img
	})
	r.run(10 * sim.Second)
	if merged == nil || merged.Incremental {
		t.Fatalf("merged = %+v", merged)
	}
	pod2, err := Restore(r.kernels[0], merged)
	if err != nil {
		t.Fatal(err)
	}
	if got := pod2.Process(1).Program().(*memWorker).Iter; got != finalIter {
		t.Fatalf("chain restore Iter = %d, want %d", got, finalIter)
	}
}

func TestStoreMissingImage(t *testing.T) {
	r := newRig(t, 1)
	called := false
	r.store.Load("ghost", 1, func(img *Image, err error) {
		called = true
		if !errors.Is(err, ErrNoImage) {
			t.Errorf("err = %v", err)
		}
	})
	if !called {
		t.Fatal("missing-image callback not invoked synchronously")
	}
	if _, err := r.store.Size("ghost", 1); !errors.Is(err, ErrNoImage) {
		t.Fatalf("Size err = %v", err)
	}
}
