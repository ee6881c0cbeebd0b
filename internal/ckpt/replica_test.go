package ckpt

import (
	"errors"
	"testing"

	"cruz/internal/mem"
	"cruz/internal/sim"
	"cruz/internal/zap"
)

// adopt drives one offer/missing/transfer/adopt exchange between stores.
func adopt(t *testing.T, r *rig, src, dst *Store, pod string, seq int) *Transfer {
	t.Helper()
	offer, err := src.ExportOffer(pod, seq)
	if err != nil {
		t.Fatalf("ExportOffer: %v", err)
	}
	needSeqs, needHashes := dst.MissingFor(offer)
	tx, err := src.BuildTransfer(pod, seq, needSeqs, needHashes)
	if err != nil {
		t.Fatalf("BuildTransfer: %v", err)
	}
	done := false
	dst.Adopt(tx, func(_ int64, aerr error) {
		if aerr != nil {
			t.Errorf("Adopt: %v", aerr)
		}
		done = true
	})
	r.run(10 * sim.Second)
	if !done {
		t.Fatal("adopt never completed")
	}
	return tx
}

func TestReplicaAdoptBlobChain(t *testing.T) {
	r := newRig(t, 2)
	pod, _ := zap.New(r.kernels[0], "p", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 32 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(50 * sim.Millisecond)

	save := func(seq int, opts Options) {
		img := r.stopAndCapture(pod, seq, opts)
		saved := false
		r.store.Save(img, func(_ int64, err error) {
			if err != nil {
				t.Errorf("Save: %v", err)
			}
			saved = true
		})
		r.run(10 * sim.Second)
		if !saved {
			t.Fatal("save never completed")
		}
		// Resume only after the write lands, so virtual time spent on the
		// disk does not churn the worker's pages between checkpoints.
		pod.Resume()
	}
	save(1, Options{})
	r.run(20 * sim.Millisecond)
	save(2, Options{Incremental: true})

	peer := NewStore(r.kernels[1].Disk())
	if peer.HasSeq("p", 2) {
		t.Fatal("empty peer claims to hold the checkpoint")
	}
	tx := adopt(t, r, r.store, peer, "p", 2)
	if !peer.HasSeq("p", 2) || !peer.HasSeq("p", 1) {
		t.Fatal("peer does not hold the chain after adoption")
	}
	if len(tx.Blobs) != 2 {
		t.Fatalf("first transfer shipped %d blobs, want full chain of 2", len(tx.Blobs))
	}

	// An incremental on top only ships the delta: the peer already holds
	// the base chain.
	r.run(20 * sim.Millisecond)
	save(3, Options{Incremental: true})
	tx2 := adopt(t, r, r.store, peer, "p", 3)
	if len(tx2.Blobs) != 1 {
		t.Fatalf("incremental transfer shipped %d blobs, want 1", len(tx2.Blobs))
	}
	if tx2.TotalBytes >= tx.TotalBytes {
		t.Fatalf("delta transfer (%d B) not smaller than full (%d B)", tx2.TotalBytes, tx.TotalBytes)
	}

	// The replica restores like a local checkpoint.
	var img *Image
	peer.LoadMerged("p", 3, func(i *Image, err error) {
		if err != nil {
			t.Errorf("LoadMerged on replica: %v", err)
		}
		img = i
	})
	r.run(10 * sim.Second)
	if img == nil || img.MemoryBytes() == 0 {
		t.Fatal("replica image empty")
	}
}

func TestReplicaAdoptDedupSendsOnlyMissingChunks(t *testing.T) {
	r := newRig(t, 2)
	pod, _ := zap.New(r.kernels[0], "d", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	w := &memWorker{HeapSize: 64 * mem.PageSize}
	pod.Spawn("w", w)
	r.run(50 * sim.Millisecond)

	// The pod stays stopped across save and adoption: memWorker stamps a
	// page with fresh content every ~1 ms step, so any virtual time it
	// runs (disk writes take real virtual time) churns page hashes and
	// would defeat the steady-state dedup this test measures.
	save := func(seq int) {
		img := r.stopAndCapture(pod, seq, Options{Hashes: true})
		done := false
		r.store.SaveDeduped(img, func(_ *SavePlan, err error) {
			if err != nil {
				t.Errorf("SaveDeduped: %v", err)
			}
			done = true
		})
		r.run(10 * sim.Second)
		if !done {
			t.Fatal("save never completed")
		}
	}
	save(1)
	peer := NewStore(r.kernels[1].Disk())
	tx := adopt(t, r, r.store, peer, "d", 1)
	if len(tx.Chunks) == 0 || len(tx.Manifests) != 1 {
		t.Fatalf("first dedup transfer: %d chunks, %d manifests", len(tx.Chunks), len(tx.Manifests))
	}

	// Steady state: let the worker run briefly so only a few pages
	// change; the second checkpoint's pages then mostly dedup against
	// chunks the replica already holds, so transfer ≈ manifest only.
	pod.Resume()
	r.run(2 * sim.Millisecond)
	save(2)
	tx2 := adopt(t, r, r.store, peer, "d", 2)
	if len(tx2.Chunks) >= len(tx.Chunks)/2 {
		t.Fatalf("steady-state transfer shipped %d chunks vs %d initially — dedup not applied", len(tx2.Chunks), len(tx.Chunks))
	}
	var img *Image
	peer.LoadMerged("d", 2, func(i *Image, err error) {
		if err != nil {
			t.Errorf("LoadMerged on dedup replica: %v", err)
		}
		img = i
	})
	r.run(10 * sim.Second)
	if img == nil {
		t.Fatal("replica dedup image missing")
	}
}

// adoptErr adopts t into s and returns Adopt's error, running the
// engine in millisecond slices until the adoption's disk write lands.
func adoptErr(r *rig, s *Store, t *Transfer) error {
	var aerr error
	done := false
	s.Adopt(t, func(_ int64, err error) { aerr, done = err, true })
	for i := 0; !done && i < 10000; i++ {
		if err := r.engine.RunFor(sim.Millisecond); err != nil {
			return err
		}
	}
	if !done {
		return errors.New("adopt never completed")
	}
	return aerr
}

// TestAdoptRejectsSelfBasedChain: an incremental image or manifest from
// a peer must be based on an older seq than the one it is keyed under.
// One based on itself would send every chain walk around in a circle.
func TestAdoptRejectsSelfBasedChain(t *testing.T) {
	r := newRig(t, 1)
	imgBlob, err := (&Image{PodName: "p", Seq: 5, BaseSeq: 5, Incremental: true}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := adoptErr(r, r.store, &Transfer{Pod: "p", Seq: 5, Blobs: map[int][]byte{5: imgBlob}}); err == nil {
		t.Fatal("adopted an incremental image based on its own seq")
	}
	if r.store.HasSeq("p", 5) {
		t.Fatal("store holds the rejected image")
	}
	manBlob, err := (&Manifest{PodName: "p", Seq: 5, BaseSeq: 5, Incremental: true}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := adoptErr(r, r.store, &Transfer{Pod: "p", Seq: 5, Manifests: map[int][]byte{5: manBlob}}); err == nil {
		t.Fatal("adopted an incremental manifest based on its own seq")
	}
	if r.store.HasSeq("p", 5) {
		t.Fatal("store holds the rejected manifest")
	}
}

// TestAdoptFailedManifestTakesNoRefs: a manifest naming a present and an
// absent chunk fails to install and leaves the present chunk
// unreferenced, so compaction can still free it.
func TestAdoptFailedManifestTakesNoRefs(t *testing.T) {
	r := newRig(t, 1)
	a, b := mem.HashBlock([]byte{1}), mem.HashBlock([]byte{2})
	blob, err := (&Manifest{PodName: "p", Seq: 1, Procs: []ProcManifest{{
		Pages: []PageRef{{PN: 0, Hash: a}, {PN: 1, Hash: b}},
	}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	tx := &Transfer{Pod: "p", Seq: 1, Manifests: map[int][]byte{1: blob}, Chunks: []ChunkData{{Hash: a, Data: []byte{1}}}}
	if err := adoptErr(r, r.store, tx); err == nil {
		t.Fatal("adopted a manifest with a missing chunk")
	}
	if refs := r.store.chunks[a].refs; refs != 0 {
		t.Fatalf("failed install left chunk A at refs=%d, want 0", refs)
	}
}

// FuzzInstallManifest adopts arbitrary bytes as the one manifest of a
// transfer into a store that already holds a real full checkpoint at
// seq 1 and every chunk of the seeds. Adopt must reject the bytes or
// leave a store whose HasSeq and ExportOffer for the keyed seq return.
func FuzzInstallManifest(f *testing.F) {
	r := newRig(f, 1)
	pod, err := zap.New(r.kernels[0], "p", zap.NetConfig{IP: podIP(0), MAC: podMAC(0)})
	if err != nil {
		f.Fatal(err)
	}
	pod.Spawn("w", &memWorker{HeapSize: 16 * mem.PageSize})
	r.run(50 * sim.Millisecond)
	save := func(seq int, opts Options) {
		img := r.stopAndCapture(pod, seq, opts)
		saved := false
		r.store.SaveDeduped(img, func(_ *SavePlan, err error) {
			if err != nil {
				f.Fatal(err)
			}
			saved = true
		})
		r.run(10 * sim.Second)
		if !saved {
			f.Fatal("save never completed")
		}
	}
	save(1, Options{Hashes: true})
	pod.Resume()
	r.run(5 * sim.Millisecond)
	// The pod stays stopped from here on, so each adoption below runs an
	// otherwise idle engine.
	save(2, Options{Hashes: true, Incremental: true})
	base, err := r.store.ExportOffer("p", 2)
	if err != nil {
		f.Fatal(err)
	}
	full, err := r.store.BuildTransfer("p", 1, []int{1}, base.Hashes)
	if err != nil {
		f.Fatal(err)
	}
	for _, seq := range []int{1, 2} {
		b, err := r.store.manifests["p"][seq].Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := NewStore(r.kernels[0].Disk())
		if err := adoptErr(r, s, full); err != nil {
			t.Fatalf("adopting the base checkpoint: %v", err)
		}
		if err := adoptErr(r, s, &Transfer{Pod: "p", Seq: 2, Manifests: map[int][]byte{2: b}}); err != nil {
			return
		}
		if _, err := s.ExportOffer("p", 2); s.HasSeq("p", 2) && err != nil {
			t.Fatalf("ExportOffer of a held seq: %v", err)
		}
	})
}
