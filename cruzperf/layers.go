package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"

	"cruz"
	"cruz/internal/sim"
)

// counters is a snapshot of every layer's exported statistics, summed
// over the cluster's machines. The timed phase reports the difference
// of two snapshots.
type counters struct {
	events                                  uint64
	ipSent, filterDrops, segHits, segMisses uint64
	noSocketRSTs                            uint64
	txFrames, txBytes, dropped, flooded     uint64
	cowFaults, steps, syscalls              uint64
	cpu                                     sim.Duration
	diskW, diskR, diskOps                   uint64
	newChunk, deduped, freed                int64
	repl, ecShard                           int64
	replFail, ecFail, fetches, recon        uint64
	aborts                                  uint64
}

func snapshot(cl *cruz.Cluster) counters {
	c := counters{events: cl.Engine.Fired(), flooded: cl.Switch.Stats.Flooded}
	for _, n := range append(append([]*cruz.Node(nil), cl.Nodes...), cl.Service) {
		st := n.Kernel.Stack()
		c.ipSent += st.Stats.IPSent
		c.noSocketRSTs += st.Stats.NoSocketRSTs
		c.segHits += st.Stats.SegPoolHits
		c.segMisses += st.Stats.SegPoolMisses
		c.filterDrops += st.Filter().Stats.InputDropped + st.Filter().Stats.OutputDropped
		c.txFrames += n.NIC.Stats.TxFrames
		c.txBytes += n.NIC.Stats.TxBytes
		c.dropped += n.NIC.Stats.Dropped
		ks := n.Kernel.Stats
		c.cowFaults += ks.CowFaults
		c.steps += ks.StepsRun
		c.syscalls += ks.Syscalls
		c.cpu += ks.ContextTime
		ds := n.Kernel.Disk().Stats
		c.diskW += ds.BytesWritten
		c.diskR += ds.BytesRead
		c.diskOps += ds.Ops
		ss := n.Store.Stats()
		c.newChunk += ss.NewChunkBytes
		c.deduped += ss.DedupedBytes
		c.freed += ss.FreedBytes
		if a := n.Agent; a != nil {
			c.repl += a.Stats.ReplBytes
			c.ecShard += a.Stats.ECShardBytes
			c.replFail += a.Stats.ReplFailures
			c.ecFail += a.Stats.ECFailures
			c.fetches += a.Stats.Fetches
			c.recon += a.Stats.ReconstructedChunks
			c.aborts += a.Stats.Aborts
		}
	}
	return c
}

// layerCounts turns the timed phase's counter deltas into per-layer
// metrics. Every value is a pure function of the seed.
func layerCounts(a, b counters) map[string]float64 {
	m := map[string]float64{
		"sim.events":                float64(b.events - a.events),
		"tcpip.ip_sent":             float64(b.ipSent - a.ipSent),
		"tcpip.filter_drops":        float64(b.filterDrops - a.filterDrops),
		"tcpip.no_socket_rsts":      float64(b.noSocketRSTs - a.noSocketRSTs),
		"ether.tx_frames":           float64(b.txFrames - a.txFrames),
		"ether.tx_mb":               mib(int64(b.txBytes - a.txBytes)),
		"ether.flooded":             float64(b.flooded - a.flooded),
		"ether.dropped":             float64(b.dropped - a.dropped),
		"mem.cow_faults":            float64(b.cowFaults - a.cowFaults),
		"kernel.steps":              float64(b.steps - a.steps),
		"kernel.syscalls":           float64(b.syscalls - a.syscalls),
		"kernel.cpu_vs":             (b.cpu - a.cpu).Seconds(),
		"kernel.disk_write_mb":      mib(int64(b.diskW - a.diskW)),
		"kernel.disk_read_mb":       mib(int64(b.diskR - a.diskR)),
		"kernel.disk_ops":           float64(b.diskOps - a.diskOps),
		"ckpt.new_chunk_mb":         mib(b.newChunk - a.newChunk),
		"ckpt.freed_mb":             mib(b.freed - a.freed),
		"core.repl_mb":              mib(b.repl - a.repl),
		"core.ec_shard_mb":          mib(b.ecShard - a.ecShard),
		"core.repl_failures":        float64(b.replFail - a.replFail),
		"core.ec_failures":          float64(b.ecFail - a.ecFail),
		"core.fetches":              float64(b.fetches - a.fetches),
		"core.reconstructed_chunks": float64(b.recon - a.recon),
		"core.aborts":               float64(b.aborts - a.aborts),
	}
	if hits, all := b.segHits-a.segHits, (b.segHits-a.segHits)+(b.segMisses-a.segMisses); all > 0 {
		m["tcpip.segpool_hit_ratio"] = float64(hits) / float64(all)
	}
	if stored := (b.newChunk - a.newChunk) + (b.deduped - a.deduped); stored > 0 {
		m["ckpt.dedup_ratio"] = float64(b.deduped-a.deduped) / float64(stored)
	}
	return m
}

// --- Host CPU attribution ---------------------------------------------

// hostLayers are the layers a CPU profile sample can be charged to.
var hostLayers = []string{
	"sim", "apps.stream", "apps.slm", "apps.kvstore", "tcpip", "ether", "mem", "kernel", "zap",
	"ckpt", "ctl", "core", "coord", "trace", "bench", "runtime", "other",
}

// layerOf maps a profiled function to its layer: the package under
// cruz/internal (apps by application), the benchmark itself (package
// main), or "other" for the remaining cruz packages (the facade,
// metrics, flush, ...). The tree relay lives in core but is the coord
// layer's runtime half, so internal/core/relay.go is charged to coord.
// Functions outside the module return "".
func layerOf(fn, file string) string {
	if strings.HasSuffix(file, "internal/core/relay.go") {
		return "coord"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, "cruz/internal/") {
		if strings.HasPrefix(fn, "cruz.") || strings.HasPrefix(fn, "cruz/") {
			return "other"
		}
		return ""
	}
	pkg := strings.TrimPrefix(fn, "cruz/internal/")
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	parts := strings.Split(pkg, "/")
	switch parts[0] {
	case "apps":
		if len(parts) > 1 {
			return "apps." + parts[1]
		}
	case "sim", "tcpip", "ether", "mem", "kernel", "zap", "ckpt", "ctl", "core", "coord", "trace":
		return parts[0]
	}
	return "other"
}

// attribute charges every sample of a gzipped pprof CPU profile to the
// innermost frame that belongs to this module, so runtime work (GC
// assists, memmove, mallocgc, gob) counts against the layer that called
// it. Samples with no module frame — background GC, the profiler, the
// scheduler — go to "runtime". The result maps layer to CPU nanoseconds.
func attribute(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				f := p.funcs[fid]
				if l := layerOf(p.strings[f.name], p.strings[f.file]); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.value
	}
	return out, nil
}

// A minimal reader for the fields of profile.proto that attribution
// needs: samples (location ids, values), locations (id, lines'
// function ids, innermost first), functions (id, name, file name) and
// the string table.

type pprofSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type pprofFunc struct{ name, file int64 } // string table indexes

type pprofData struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64
	funcs    map[uint64]pprofFunc
	strings  []string
}

type pbuf struct {
	b []byte
}

var errProto = errors.New("profile: malformed protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (p *pbuf) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return field, wire, v, payload, err
}

// ints decodes a repeated integer field, packed or not.
func ints(wire int, v uint64, payload []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, v), nil
	}
	q := pbuf{payload}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, x)
	}
	return into, nil
}

func parseProfile(raw []byte) (*pprofData, error) {
	d := &pprofData{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]pprofFunc{}}
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, _, payload, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s pprofSample
			var vals []uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				f, w, v, pl, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = ints(w, v, pl, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = ints(w, v, pl, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			d.samples = append(d.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				f, _, v, pl, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{pl}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			d.locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var fn pprofFunc
			q := pbuf{payload}
			for len(q.b) > 0 {
				f, _, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
			}
			d.funcs[id] = fn
		case 6: // string_table
			d.strings = append(d.strings, string(payload))
		}
	}
	for _, f := range d.funcs {
		if f.name < 0 || f.name >= int64(len(d.strings)) || f.file < 0 || f.file >= int64(len(d.strings)) {
			return nil, errProto
		}
	}
	return d, nil
}
