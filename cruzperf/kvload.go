package main

import (
	"encoding/binary"
	"fmt"

	"cruz/internal/apps/kvstore"
	"cruz/internal/kernel"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// The open-loop kv load. kvstore.Client is closed-loop with a think
// time, so a stalled server simply receives fewer requests and the stall
// never shows in its latency. Here a sender issues requests on a fixed
// virtual-time schedule whatever the server does, and a child process
// sharing the connection reads the replies in order and times each from
// the moment its request was due — so a freeze delays every request
// scheduled behind it, as real users would see.
//
// Both processes run on the service node outside any pod: they are never
// checkpointed, and the benchmark reads their state directly.

// kvWork is the seed-derived request stream both halves agree on.
// Request i is SET k(i/2) = val(i/2) for even i and GET k(i/2) for odd
// i, so every GET must return the value set just before it.
type kvWork struct {
	Seed     uint64
	Keys     uint64
	Start    sim.Time
	Interval sim.Duration
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (w kvWork) due(i uint64) sim.Time { return w.Start.Add(sim.Duration(i) * w.Interval) }

func (w kvWork) key(pair uint64) string {
	return fmt.Sprintf("k%d", mix(w.Seed^pair)%w.Keys)
}

func (w kvWork) val(pair uint64) []byte {
	h := mix(w.Seed + pair*0x9E3779B97F4A7C15)
	v := make([]byte, 16+h%81)
	for i := range v {
		v[i] = byte(h >> (8 * (uint(i) % 8)))
	}
	return v
}

func (w kvWork) request(i uint64) []byte {
	if i%2 == 0 {
		return kvstore.EncodeRequest(kvstore.OpSet, w.key(i/2), w.val(i/2))
	}
	return kvstore.EncodeRequest(kvstore.OpGet, w.key(i/2), nil)
}

// kvSender issues the schedule until Stop is set.
type kvSender struct {
	Work   kvWork
	Server tcpip.AddrPort
	Recv   *kvReceiver
	Stop   bool

	phase   int
	fd      int
	issued  uint64
	pending []byte
	// MaxLate is the worst generator lateness: how far behind its due
	// time a request was handed to the socket.
	MaxLate sim.Duration
	Fault   string
}

// Issued returns the number of requests fully handed to the socket.
func (s *kvSender) Issued() uint64 { return s.issued }

func (s *kvSender) fail(m string) kernel.StepResult {
	s.Fault = m
	return kernel.Exit(0, 2)
}

func (s *kvSender) Step(ctx *kernel.ProcContext) kernel.StepResult {
	switch s.phase {
	case 0:
		fd, err := ctx.Connect(s.Server)
		if err != nil {
			return s.fail("connect: " + err.Error())
		}
		s.fd, s.phase = fd, 1
		return kernel.Continue(0)
	case 1:
		ok, err := ctx.ConnEstablished(s.fd)
		if err != nil {
			return s.fail("establish: " + err.Error())
		}
		if !ok {
			return kernel.Sleep(0, sim.Millisecond)
		}
		if err := ctx.SetNoDelay(s.fd, true); err != nil {
			return s.fail("nodelay: " + err.Error())
		}
		_, fds, err := ctx.Spawn("kv-recv", s.Recv, s.fd)
		if err != nil {
			return s.fail("spawn receiver: " + err.Error())
		}
		s.Recv.fd = fds[0]
		s.phase = 2
		return kernel.Continue(0)
	}
	if len(s.pending) > 0 {
		n, err := ctx.Send(s.fd, s.pending)
		if err == kernel.ErrWouldBlock {
			// The receiver owns the connection's wakeups; poll.
			return kernel.Sleep(0, 100*sim.Microsecond)
		}
		if err != nil {
			return s.fail("send: " + err.Error())
		}
		s.pending = s.pending[n:]
		if len(s.pending) > 0 {
			return kernel.Sleep(0, 100*sim.Microsecond)
		}
		s.issued++
		return kernel.Continue(sim.Microsecond)
	}
	if s.Stop {
		return kernel.Sleep(0, sim.Second)
	}
	now, due := ctx.Now(), s.Work.due(s.issued)
	if now < due {
		return kernel.Sleep(0, due.Sub(now))
	}
	if late := now.Sub(due); late > s.MaxLate {
		s.MaxLate = late
	}
	s.pending = s.Work.request(s.issued)
	return kernel.Continue(0)
}

// kvReceiver checks replies in order and records each request's latency
// from its due time.
type kvReceiver struct {
	Work kvWork

	fd  int
	buf []byte
	// Latency holds one sample per answered request, in request order.
	Latency []sim.Duration
	Fault   string
}

func (r *kvReceiver) fail(m string) kernel.StepResult {
	r.Fault = m
	return kernel.Exit(0, 2)
}

// Answered returns the number of replies received and verified.
func (r *kvReceiver) Answered() uint64 { return uint64(len(r.Latency)) }

func (r *kvReceiver) Step(ctx *kernel.ProcContext) kernel.StepResult {
	var chunk [4096]byte
	n, err := ctx.Recv(r.fd, chunk[:], false)
	if err == kernel.ErrWouldBlock {
		return kernel.BlockOnRead(0, r.fd)
	}
	if err != nil {
		return r.fail("recv: " + err.Error())
	}
	r.buf = append(r.buf, chunk[:n]...)
	for len(r.buf) >= 5 {
		vlen := int(binary.BigEndian.Uint32(r.buf[1:5]))
		if len(r.buf) < 5+vlen {
			break
		}
		i := r.Answered()
		status, val := r.buf[0], r.buf[5:5+vlen]
		if status != 'K' {
			return r.fail(fmt.Sprintf("request %d: status %q", i, status))
		}
		if i%2 == 1 && string(val) != string(r.Work.val(i/2)) {
			return r.fail(fmt.Sprintf("request %d: GET returned the wrong value", i))
		}
		if i%2 == 0 && vlen != 0 {
			return r.fail(fmt.Sprintf("request %d: SET answered with a value", i))
		}
		r.Latency = append(r.Latency, ctx.Now().Sub(r.Work.due(i)))
		r.buf = r.buf[5+vlen:]
	}
	return kernel.Continue(sim.Microsecond)
}
