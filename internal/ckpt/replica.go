package ckpt

import (
	"fmt"
	"sort"

	"cruz/internal/mem"
	"cruz/internal/trace"
)

// Durability support: a store can describe one of its checkpoints as an
// Offer, a peer store answers with what it is missing, and the resulting
// Transfer carries only those bytes — the manifest(s) plus chunks the
// peer has never seen, mirroring PlanDedupSave's accounting — so
// steady-state replication of a deduplicated checkpoint chain costs
// little more than the manifest. An erasure-coded shard holder takes part
// in the same exchange: its offer lists one ring position's shard hashes
// (ECSet.HolderOffer) and its transfer carries the shard set, so a full
// replica is simply the holder of every position.

// Offer describes one stored checkpoint (and its incremental chain) for
// replication, without any bulk data.
type Offer struct {
	Pod string
	Seq int
	// Chain lists the sequence numbers a restore of Seq needs,
	// newest-first (length 1 for a full checkpoint).
	Chain []int
	// Dedup marks the manifest/chunk form; Hashes then lists every
	// distinct page hash the chain references (or, for a shard holder,
	// the hashes of its shard subset), in deterministic order.
	Dedup  bool
	Hashes []mem.PageHash
}

// ChunkData pairs a page hash with its bytes on the wire.
type ChunkData struct {
	Hash mem.PageHash
	Data []byte
}

// Transfer is the delta a peer asked for: encoded images (blob form) or
// encoded manifests plus missing chunks (dedup form).
type Transfer struct {
	Pod       string
	Seq       int
	Blobs     map[int][]byte
	Manifests map[int][]byte
	Chunks    []ChunkData
	// TotalBytes is what the receiving disk will write on adoption.
	TotalBytes int64
	// Ctx is the trace context of the exchange this transfer belongs to;
	// Adopt parents its disk-write span under it. The store is
	// wire-agnostic — the core layer sets this from the carrying message.
	Ctx trace.SpanContext
	// Set, when non-nil, makes this a shard holder's transfer: Chunks are
	// the shard blocks of ring position Holder in the erasure-coded set,
	// and Manifests the chain manifests, kept raw by the holder.
	Set    *ECSet
	Holder int
}

// HasSeq reports whether the store holds a usable checkpoint at seq —
// the image (or manifest) plus, for incrementals, its whole base chain.
func (s *Store) HasSeq(pod string, seq int) bool {
	if _, ok := s.manifests[pod][seq]; ok {
		_, err := s.manifestChain(pod, seq)
		return err == nil
	}
	meta, ok := s.images[pod][seq]
	for ok {
		if !meta.Incremental {
			return true
		}
		meta, ok = s.images[pod][meta.BaseSeq]
	}
	return false
}

// ExportOffer describes the checkpoint at (pod, seq) for replication.
func (s *Store) ExportOffer(pod string, seq int) (*Offer, error) {
	o := &Offer{Pod: pod, Seq: seq}
	if _, ok := s.manifests[pod][seq]; ok {
		chain, err := s.manifestChain(pod, seq)
		if err != nil {
			return nil, err
		}
		o.Chain = chain
		o.Dedup = true
		seen := make(map[mem.PageHash]bool)
		for _, cs := range chain {
			m := s.manifests[pod][cs]
			for i := range m.Procs {
				for _, ref := range m.Procs[i].Pages {
					if !seen[ref.Hash] {
						seen[ref.Hash] = true
						o.Hashes = append(o.Hashes, ref.Hash)
					}
				}
			}
		}
		return o, nil
	}
	metas := s.images[pod]
	cur := seq
	for {
		meta, ok := metas[cur]
		if !ok {
			return nil, fmt.Errorf("%w: %s/%d (chain from %d)", ErrNoImage, pod, cur, seq)
		}
		o.Chain = append(o.Chain, cur)
		if !meta.Incremental {
			return o, nil
		}
		cur = meta.BaseSeq
	}
}

// MissingFor answers an offer with the chain sequences and chunk hashes
// this store lacks — the delta the sender must ship. A chain manifest
// held raw for a shard set counts as present: a shard holder needs no
// more, and Adopt decodes it if a full image later builds on it.
func (s *Store) MissingFor(o *Offer) (needSeqs []int, needHashes []mem.PageHash) {
	for _, cs := range o.Chain {
		if o.Dedup {
			if _, ok := s.manifests[o.Pod][cs]; ok {
				continue
			}
			if _, ok := s.ecManifests[o.Pod][cs]; ok {
				continue
			}
		} else if _, ok := s.blobs[o.Pod][cs]; ok {
			continue
		}
		needSeqs = append(needSeqs, cs)
	}
	for _, h := range o.Hashes {
		if _, ok := s.chunks[h]; !ok {
			needHashes = append(needHashes, h)
		}
	}
	return needSeqs, needHashes
}

// BuildTransfer assembles the delta a replica asked for.
func (s *Store) BuildTransfer(pod string, seq int, needSeqs []int, needHashes []mem.PageHash) (*Transfer, error) {
	t := &Transfer{Pod: pod, Seq: seq}
	for _, cs := range needSeqs {
		if m, ok := s.manifests[pod][cs]; ok {
			mblob, err := m.Encode()
			if err != nil {
				return nil, err
			}
			if t.Manifests == nil {
				t.Manifests = make(map[int][]byte)
			}
			t.Manifests[cs] = mblob
			t.TotalBytes += int64(len(mblob))
			continue
		}
		blob, ok := s.blobs[pod][cs]
		if !ok {
			return nil, fmt.Errorf("%w: %s/%d", ErrNoImage, pod, cs)
		}
		if t.Blobs == nil {
			t.Blobs = make(map[int][]byte)
		}
		t.Blobs[cs] = blob
		t.TotalBytes += int64(len(blob))
	}
	for _, h := range needHashes {
		e, ok := s.chunks[h]
		if !ok {
			return nil, fmt.Errorf("ckpt: transfer missing chunk %v", h)
		}
		t.Chunks = append(t.Chunks, ChunkData{Hash: h, Data: e.data})
		t.TotalBytes += int64(len(e.data))
	}
	return t, nil
}

// Serve assembles this store's answer to a recovery pull for (pod, seq):
// the whole chain when it holds the image, else the shard subset it
// holds, with the set and its ring position.
func (s *Store) Serve(pod string, seq int) (*Transfer, error) {
	if s.HasSeq(pod, seq) {
		o, err := s.ExportOffer(pod, seq)
		if err != nil {
			return nil, err
		}
		return s.BuildTransfer(pod, seq, o.Chain, o.Hashes)
	}
	held, ok := s.ecHeld[pod][seq]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%d", ErrNoImage, pod, seq)
	}
	t := &Transfer{Pod: pod, Seq: seq, Manifests: held.manifests, Set: held.set, Holder: held.holder}
	for _, h := range held.set.HolderHashes(held.holder) {
		if e, ok := s.chunks[h]; ok {
			t.Chunks = append(t.Chunks, ChunkData{Hash: h, Data: e.data})
			t.TotalBytes += int64(len(e.data))
		}
	}
	for _, blob := range held.manifests {
		t.TotalBytes += int64(len(blob))
	}
	return t, nil
}

// Adopt installs a received transfer into this store, charging its bytes
// to the local disk: a full image becomes restorable here, a shard
// transfer is held for a later reconstruction. done fires with the bytes
// written once the write lands.
func (s *Store) Adopt(t *Transfer, done func(int64, error)) {
	// Chunks first so adopted manifests and shard sets can take references.
	for _, cd := range t.Chunks {
		if _, ok := s.chunks[cd.Hash]; !ok {
			s.chunks[cd.Hash] = &chunkEntry{data: cd.Data}
			s.stats.NewChunks++
			s.stats.NewChunkBytes += int64(len(cd.Data))
		}
	}
	install := s.installImage
	if t.Set != nil {
		install = s.holdShards
	}
	if err := install(t); err != nil {
		done(0, err)
		return
	}
	if t.TotalBytes <= 0 {
		done(0, nil)
		return
	}
	var sp trace.Span
	if tr := trace.FromEngine(s.disk.Engine()); tr.Enabled() {
		sp = tr.BeginChild(t.Ctx, s.disk.Name(), "ckpt", "store.adopt",
			trace.Str("pod", t.Pod), trace.Int("seq", int64(t.Seq)),
			trace.Int("bytes", t.TotalBytes))
	}
	s.disk.Write(t.TotalBytes, func() {
		sp.End()
		done(t.TotalBytes, nil)
	})
}

// installImage registers a full transfer's images and manifests, then
// decodes any chain link the offer skipped because this store held it
// raw as a shard holder — every chunk it references has arrived by now.
// Like installManifest, it refuses an incremental image whose base is
// not older than its seq, so a chain received from a peer cannot loop.
func (s *Store) installImage(t *Transfer) error {
	for _, seq := range sortedSeqs(t.Blobs) {
		blob := t.Blobs[seq]
		img, err := DecodeImage(blob)
		if err != nil {
			return err
		}
		if img.Incremental && img.BaseSeq >= seq {
			return fmt.Errorf("ckpt: install %s/%d: incremental image based on %d", t.Pod, seq, img.BaseSeq)
		}
		if s.blobs[t.Pod] == nil {
			s.blobs[t.Pod] = make(map[int][]byte)
			s.images[t.Pod] = make(map[int]*Image)
		}
		s.blobs[t.Pod][seq] = blob
		s.images[t.Pod][seq] = img
		if seq > s.latest[t.Pod] {
			s.latest[t.Pod] = seq
		}
	}
	for _, seq := range sortedSeqs(t.Manifests) {
		if err := s.installManifest(t.Pod, seq, t.Manifests[seq]); err != nil {
			return err
		}
	}
	for seq := t.Seq; ; {
		m, ok := s.manifests[t.Pod][seq]
		if !ok {
			blob, raw := s.ecManifests[t.Pod][seq]
			if !raw {
				return nil
			}
			if err := s.installManifest(t.Pod, seq, blob); err != nil {
				return err
			}
			m = s.manifests[t.Pod][seq]
		}
		if !m.Incremental {
			return nil
		}
		seq = m.BaseSeq
	}
}

// installManifest decodes one chain manifest and registers it, taking a
// reference on every chunk it names. It changes nothing unless every
// chunk is present, and it refuses an incremental manifest whose base is
// not older than the seq it is keyed under: every chain walk then
// strictly descends and ends.
func (s *Store) installManifest(pod string, seq int, blob []byte) error {
	m, err := DecodeManifest(blob)
	if err != nil {
		return err
	}
	if m.Incremental && m.BaseSeq >= seq {
		return fmt.Errorf("ckpt: install %s/%d: incremental manifest based on %d", pod, seq, m.BaseSeq)
	}
	for i := range m.Procs {
		for _, ref := range m.Procs[i].Pages {
			if _, ok := s.chunks[ref.Hash]; !ok {
				return fmt.Errorf("ckpt: install %s/%d: missing chunk %v", pod, seq, ref.Hash)
			}
		}
	}
	for i := range m.Procs {
		for _, ref := range m.Procs[i].Pages {
			s.chunks[ref.Hash].refs++
			s.stats.DupChunks++
		}
	}
	if s.manifests[pod] == nil {
		s.manifests[pod] = make(map[int]*Manifest)
		s.manifestBytes[pod] = make(map[int]int64)
	}
	s.manifests[pod][seq] = m
	s.manifestBytes[pod][seq] = int64(len(blob))
	if seq > s.latest[pod] {
		s.latest[pod] = seq
	}
	return nil
}

func sortedSeqs(m map[int][]byte) []int {
	seqs := make([]int, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}
