package fabric

import (
	"fmt"
	"time"

	"sanft/internal/metrics"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// Pipe is the shard-local fabric of the conservative parallel engine
// (internal/parsim): a latency-faithful, contention-decoupled wire model.
//
// The wormhole fabric cannot be partitioned conservatively: backpressure
// couples a worm's tail to its head with zero lookahead (a blocked channel
// on one host's path releases at the same instant another host's grant
// lands). Pipe removes channel contention and evaluates the whole path at
// injection time against the shard's own topology replica, charging the
// uncontended cut-through latency:
//
//	H·(PropDelay + RouteDelay) + PropDelay + SerializationTime(size)
//
// for a route crossing H switches — exactly the wormhole fabric's
// uncontended pipeline. Every quantity depends only on the shard's local
// state at the injection instant, so a packet's arrival time is known the
// moment it leaves, and the minimum such latency over all host pairs is a
// sound lookahead for the epoch barrier. Route and liveness checks (dead
// links, dead switches, bad route bytes) also happen at injection time:
// drop timing shifts earlier than the wormhole's head-hits-the-fault
// timing, which is a documented modeling difference of sharded mode — but
// an identical one for every worker count, which is what byte-identical
// parallel execution requires.
//
// A destination host attached locally (AttachHost) receives directly; any
// other destination is handed to the Egress hook with its precomputed
// arrival time — the shard boundary the engine carries packets across.
type Pipe struct {
	k   *sim.Kernel
	nw  *topology.Network
	cfg Config

	deliver map[topology.NodeID]func(*Packet)
	egress  func(dst topology.NodeID, at sim.Time, pkt *Packet)

	tracer trace.Tracer
	gray   map[int]*grayLink // per-link probabilistic loss (SetLinkLoss)

	ctr counters
}

// NewPipe returns a pipe-mode fabric over the (shard-local) network nw
// driven by kernel k.
func NewPipe(k *sim.Kernel, nw *topology.Network, cfg Config) *Pipe {
	if cfg.LinkRate <= 0 {
		panic("fabric: LinkRate must be positive")
	}
	p := &Pipe{
		k:       k,
		nw:      nw,
		cfg:     cfg,
		deliver: make(map[topology.NodeID]func(*Packet)),
	}
	p.BindMetrics(metrics.NewRegistry())
	return p
}

// BindMetrics points the pipe's instrumentation at reg. Pipe mode has no
// channel arbiters, so unlike the wormhole fabric it publishes no per-link
// busy/utilization gauges — only the packet counters.
func (p *Pipe) BindMetrics(reg *metrics.Registry) { p.ctr.bind(reg) }

// Metrics returns the registry the pipe currently records into.
func (p *Pipe) Metrics() *metrics.Registry { return p.ctr.reg }

// Stats returns a snapshot of this shard's fabric counters. In a sharded
// run, injections count on the source shard and deliveries on the
// destination shard; cluster-wide totals come from the merged registry.
func (p *Pipe) Stats() Stats { return p.ctr.stats() }

// AttachHost registers the receive callback for a locally-owned host.
func (p *Pipe) AttachHost(h topology.NodeID, fn func(*Packet)) {
	if p.nw.Node(h).Kind != topology.Host {
		panic(fmt.Sprintf("fabric: %d is not a host", h))
	}
	p.deliver[h] = fn
}

// SetEgress installs the shard-boundary hook: packets terminating at a
// host with no local AttachHost callback are handed to fn together with
// their arrival time (strictly later than now by at least the cross-shard
// lookahead). The engine forwards them to the owning shard's pipe via
// Arrive.
func (p *Pipe) SetEgress(fn func(dst topology.NodeID, at sim.Time, pkt *Packet)) {
	p.egress = fn
}

// SetTracer wires (or removes, with nil) a packet-level event tracer.
func (p *Pipe) SetTracer(tr trace.Tracer) { p.tracer = tr }

// KillLink fails link l on the pipe's topology replica. A pipe decides
// each packet's fate at injection, so no packet in flight needs flushing.
func (p *Pipe) KillLink(l *topology.Link) { p.nw.KillLink(l) }

// SerializationTime returns how long a packet of n bytes occupies a link.
func (p *Pipe) SerializationTime(n int) time.Duration {
	return time.Duration(float64(n) / p.cfg.LinkRate * 1e9)
}

func (p *Pipe) emitPkt(kind trace.Kind, pkt *Packet, note string) {
	if p.tracer == nil {
		return
	}
	p.tracer.Trace(trace.Event{
		At: p.k.Now(), Node: pkt.Src, Kind: kind, Peer: pkt.Dst,
		Gen: pkt.Gen, Seq: pkt.Seq, Msg: pkt.Msg, Note: note,
	})
}

func (p *Pipe) drop(pkt *Packet, reason DropReason) {
	p.ctr.drop(reason)
	p.emitPkt(trace.EvFabDrop, pkt, reason.String())
	if pkt.OnDropped != nil {
		pkt.OnDropped(reason)
	}
}

// Inject launches a packet from host src. The whole route is evaluated
// now against the shard's topology replica; on success the send DMA
// completes after one serialization time and the packet arrives at its
// terminal host after the uncontended cut-through latency.
func (p *Pipe) Inject(src topology.NodeID, pkt *Packet) {
	pkt.Src = src
	pkt.Injected = p.k.Now()
	p.ctr.inject()
	n := p.nw.Node(src)
	if n.Kind != topology.Host {
		panic(fmt.Sprintf("fabric: inject from non-host %s", n.Name))
	}
	// Any drop decided at injection must still complete the send DMA, or
	// the source NIC's transmit path wedges forever (same contract as the
	// wormhole fabric's no-route path).
	fail := func(reason DropReason) {
		p.drop(pkt, reason)
		if pkt.OnInjectDone != nil {
			pkt.OnInjectDone()
		}
	}

	l := n.Ports[0]
	if !p.nw.LinkUsable(l) {
		fail(DropNoRoute)
		return
	}
	if p.graySample(l.ID) {
		fail(DropGray)
		return
	}
	lat := p.cfg.PropDelay
	cur := l.Other(src).Node
	for _, port := range pkt.Route {
		node := p.nw.Node(cur)
		if node.Kind != topology.Switch {
			fail(DropBadRoute)
			return
		}
		if !node.Up {
			fail(DropDeadSwitch)
			return
		}
		lat += p.cfg.RouteDelay
		if port < 0 || port >= node.Radix() || node.Ports[port] == nil {
			fail(DropBadRoute)
			return
		}
		nl := node.Ports[port]
		if !p.nw.LinkUsable(nl) {
			fail(DropDeadLink)
			return
		}
		if p.graySample(nl.ID) {
			fail(DropGray)
			return
		}
		lat += p.cfg.PropDelay
		cur = nl.Other(cur).Node
	}
	term := p.nw.Node(cur)
	if term.Kind != topology.Host || !term.Up {
		fail(DropBadRoute)
		return
	}

	ser := p.SerializationTime(pkt.Size)
	p.k.After(ser, func() {
		if pkt.OnInjectDone != nil {
			pkt.OnInjectDone()
		}
	})
	at := p.k.Now().Add(lat + ser)
	if fn := p.deliver[cur]; fn != nil {
		dst := cur
		p.k.At(at, func() { p.Arrive(dst, pkt) })
		return
	}
	if p.egress == nil {
		fail(DropNoRoute)
		return
	}
	p.egress(cur, at, pkt)
}

// Arrive completes delivery of pkt to terminal host dst at the current
// instant. For cross-shard packets the engine calls this on the owning
// shard's pipe at the arrival time the source shard computed.
func (p *Pipe) Arrive(dst topology.NodeID, pkt *Packet) {
	pkt.Delivered = p.k.Now()
	p.ctr.deliver(pkt.Size)
	p.emitPkt(trace.EvDeliver, pkt, "")
	if fn := p.deliver[dst]; fn != nil {
		fn(pkt)
	}
}

// MinCrossLatency returns the smallest pipe-mode traversal latency between
// any ordered pair of distinct hosts whose shortest route crosses minHops
// switches — the conservative lookahead of the parallel engine. It
// excludes serialization time (a true lower bound for any packet size):
//
//	lookahead = minHops·(PropDelay + RouteDelay) + PropDelay
//
// Every cross-shard packet arrives at least this much later than its
// injection, so events exchanged at an epoch boundary can never land
// inside the epoch that produced them.
func (cfg Config) MinCrossLatency(minHops int) time.Duration {
	if minHops < 1 {
		minHops = 1
	}
	return time.Duration(minHops)*(cfg.PropDelay+cfg.RouteDelay) + cfg.PropDelay
}
