package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/metrics"
	"sanft/internal/nic"
	"sanft/internal/parsim"
	"sanft/internal/proto"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
	"sanft/internal/vmmc"
)

// shardTraceCap bounds each cell's trace ring on a multi-cell plan. Rings
// are per cell, so overflow (oldest-event eviction) is a per-cell
// property, identical for every worker count.
const shardTraceCap = 8192

// cell is one unit of a cluster: a group of hosts with their protocol
// stacks, a private kernel, and the fabric, topology view, metrics
// registry and trace ring those stacks touch. On a multi-cell plan
// nothing in a cell is reachable from another cell except through the
// engine's epoch-barrier exchange; traffic between hosts of the same
// cell delivers directly through the cell's fabric, with no clone and no
// barrier.
type cell struct {
	id     int
	stacks []*stack // in host order
	k      *sim.Kernel
	nw     *topology.Network
	fab    wire
	obs    *metrics.Observer
	// ring is nil on the one-cell plan; cell code tells the plans apart
	// by it.
	ring *trace.Ring

	// remapRunning counts the cell's mapping runs in flight, for
	// RemapPolicy.MaxConcurrent pacing.
	remapRunning int

	// logging arms the delivery log (StartFlows turns it on).
	logging    bool
	deliveries []Delivery

	// forward queues ring events for the cluster tracer while one is
	// installed on a multi-cell plan; forwardTrace drains it.
	forward bool
	pending []trace.Event
	// upcalls queues OnUnreachable calls on a multi-cell plan;
	// deliverUpcalls drains it.
	upcalls []upcall
}

// upcall is one queued OnUnreachable call.
type upcall struct {
	at       sim.Time
	src, dst topology.NodeID
}

// wire is the fabric a cell runs on: the wormhole Fabric or a Pipe.
type wire interface {
	nic.Wire
	BindMetrics(*metrics.Registry)
	SetTracer(trace.Tracer)
	SetLinkLoss(link int, rate float64, seed int64)
	KillLink(*topology.Link)
}

func (cl *cell) Kernel() *sim.Kernel { return cl.k }

// Trace records e in the cell ring (multi-cell plans trace into the cell
// itself) and queues it for the cluster tracer when one is installed.
func (cl *cell) Trace(e trace.Event) {
	cl.ring.Trace(e)
	if cl.forward {
		cl.pending = append(cl.pending, e)
	}
}

// newCell builds cell i over hosts. Every choice that differs between
// the one-cell plan and a multi-cell plan is made here.
func (c *Cluster) newCell(i int, hosts []topology.NodeID, multi bool) *cell {
	cfg := c.cfg
	cl := &cell{id: i, obs: metrics.NewObserver(cfg.Metrics)}
	tracer := cfg.Tracer
	if multi {
		cl.k = sim.New(parsim.ShardSeed(cfg.Seed, i))
		cl.nw = cfg.Net.Clone()
		cl.fab = fabric.NewPipe(cl.k, cl.nw, cfg.Fabric)
		cl.ring = trace.NewRing(shardTraceCap)
		cl.forward = cfg.Tracer != nil
		tracer = cl
	} else {
		cl.k = sim.New(cfg.Seed)
		cl.nw = cfg.Net
		cl.fab = fabric.New(cl.k, cl.nw, cfg.Fabric)
	}
	reg := cl.obs.Registry()
	cl.fab.BindMetrics(reg)
	if tracer != nil {
		cl.fab.SetTracer(tracer)
	}
	for _, h := range hosts {
		var dropper fault.Dropper
		if cfg.ErrorRate > 0 {
			// Seed per (cluster, host): different cluster seeds — and
			// different NICs within one cluster — get independent drop
			// schedules at the same rate, whatever cell the host is in.
			dropper = fault.NewRateSeeded(cfg.ErrorRate, cfg.Seed*1000003+int64(h)*7919+12289)
		}
		n := nic.New(cl.k, cl.fab, h, nic.Options{
			FT:       cfg.FT,
			Retrans:  cfg.Retrans,
			Cost:     cfg.Cost,
			Dropper:  dropper,
			Tracer:   tracer,
			Metrics:  reg,
			Liveness: cfg.Liveness,
		})
		ep := vmmc.NewEndpoint(cl.k, n, c.Dir)
		n.SetOnDeliver(func(f *proto.Frame) {
			if cl.logging {
				cl.deliveries = append(cl.deliveries, Delivery{
					At: cl.k.Now(), Src: f.Src, Dst: h, Msg: f.Data.MsgID, Gen: f.Gen, Seq: f.Seq,
				})
			}
			ep.Deliver(f)
		})
		s := &stack{cell: cl, nic: n, ep: ep}
		cl.stacks = append(cl.stacks, s)
		c.stacks[h] = s
	}
	return cl
}

// setTracer points the cell's layers at tr. A multi-cell plan keeps its
// layers on the cell ring and only switches forwarding.
func (cl *cell) setTracer(tr trace.Tracer) {
	if cl.ring != nil {
		cl.forward, cl.pending = tr != nil, nil
		return
	}
	cl.fab.SetTracer(tr)
	for _, s := range cl.stacks {
		s.nic.SetTracer(tr)
	}
}

// connectCells starts the parallel engine over the cells and wires the
// cell boundary: a packet terminating at a host of another cell crosses
// via the engine, deep-copied from pooled storage — wire transit is the
// serialization point. Intra-cell packets never get here: their hosts
// are locally attached to the cell's pipe.
func (c *Cluster) connectCells() {
	shards := make([]parsim.Shard, len(c.cells))
	for i, cl := range c.cells {
		shards[i] = cl
	}
	c.eng = parsim.NewEngine(shards, c.Lookahead, c.cfg.Workers)
	for i, src := range c.cells {
		port := c.eng.Port(i)
		src.fab.(*fabric.Pipe).SetEgress(func(dst topology.NodeID, at sim.Time, pkt *fabric.Packet) {
			s := c.stacks[dst]
			if s == nil {
				return // terminal node is not a cluster host: silently lost
			}
			cp := clonePacket(pkt)
			pipe := s.cell.fab.(*fabric.Pipe)
			port.Send(at, s.cell.id, func() { pipe.Arrive(dst, cp) })
		})
	}
}

// forwardTrace hands the cluster tracer the events the cells queued
// since the last boundary, in merged timeline order. A no-op on the
// one-cell plan, where the tracer is wired into the layers directly.
func (c *Cluster) forwardTrace() {
	if c.tracer == nil || c.cells[0].ring == nil {
		return
	}
	streams := make([][]trace.Event, len(c.cells))
	for i, cl := range c.cells {
		streams[i], cl.pending = cl.pending, nil
	}
	for _, e := range trace.MergeStreams(streams...) {
		c.tracer.Trace(e)
	}
}

// unreachable reports src's quarantine of dst to Config.OnUnreachable:
// at once on the one-cell plan; on several cells, queued until the next
// RunFor/Stop boundary, so the upcall never runs on two goroutines at
// once and sees the same order for every worker count.
func (cl *cell) unreachable(c *Cluster, src, dst topology.NodeID) {
	if c.cfg.OnUnreachable == nil {
		return
	}
	if cl.ring == nil {
		c.cfg.OnUnreachable(src, dst)
		return
	}
	cl.upcalls = append(cl.upcalls, upcall{cl.k.Now(), src, dst})
}

// deliverUpcalls hands the queued OnUnreachable calls over in (time,
// cell, queue position) order.
func (c *Cluster) deliverUpcalls() {
	var all []upcall
	for _, cl := range c.cells {
		all = append(all, cl.upcalls...)
		cl.upcalls = nil
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	for _, u := range all {
		c.cfg.OnUnreachable(u.src, u.dst)
	}
}

// Delivery is one accepted data frame, as observed by the destination
// cell — the cluster's delivery-order oracle record.
type Delivery struct {
	At       sim.Time
	Src, Dst topology.NodeID
	Msg      uint64
	Gen      uint32
	Seq      uint64
}

func (d Delivery) String() string {
	return fmt.Sprintf("t=%d deliver %d->%d msg=%d gen=%d seq=%d", d.At, d.Src, d.Dst, d.Msg, d.Gen, d.Seq)
}

// Flow is one directed traffic stream of a frame-level workload.
type Flow struct {
	Src, Dst topology.NodeID
}

// planGroups resolves a ShardPlan against the host list: explicit groups
// are validated (every host exactly once, no strangers), HostsPerShard
// chunks the hosts in order, and the zero plan is one host per cell.
func planGroups(plan ShardPlan, hosts []topology.NodeID) [][]topology.NodeID {
	if len(plan.Groups) > 0 {
		seen := make(map[topology.NodeID]bool)
		for _, g := range plan.Groups {
			if len(g) == 0 {
				panic("core: shard plan contains an empty group")
			}
			for _, h := range g {
				if seen[h] {
					panic(fmt.Sprintf("core: shard plan lists host %d twice", h))
				}
				seen[h] = true
			}
		}
		for _, h := range hosts {
			if !seen[h] {
				panic(fmt.Sprintf("core: shard plan does not cover host %d", h))
			}
		}
		if len(seen) != len(hosts) {
			panic("core: shard plan names nodes outside the cluster's host list")
		}
		return plan.Groups
	}
	k := plan.HostsPerShard
	if k <= 0 {
		k = 1
	}
	var groups [][]topology.NodeID
	for i := 0; i < len(hosts); i += k {
		j := i + k
		if j > len(hosts) {
			j = len(hosts)
		}
		groups = append(groups, hosts[i:j])
	}
	return groups
}

// clonePacket deep-copies a packet crossing a cell boundary, drawing
// packet and frame storage from the fabric/proto pools: the destination
// NIC's receive path releases both at end of life, so steady-state
// cross-cell traffic allocates nothing. Callbacks are stripped by
// ClonePooled: OnInjectDone already fired on the source cell, and the
// wire gives no cross-host drop feedback (which is why the
// retransmission protocol exists).
func clonePacket(pkt *fabric.Packet) *fabric.Packet {
	cp := pkt.ClonePooled()
	if f, ok := pkt.Payload.(*proto.Frame); ok {
		cp.Payload = f.ClonePooled()
	}
	return cp
}

// trunkLinks returns the switch-to-switch links of nw in link-ID order —
// the same deterministic candidate set on every cell's topology view.
func trunkLinks(nw *topology.Network) []*topology.Link {
	var out []*topology.Link
	for _, l := range nw.Links {
		if nw.Node(l.A.Node).Kind == topology.Switch &&
			nw.Node(l.B.Node).Kind == topology.Switch {
			out = append(out, l)
		}
	}
	return out
}

// FlapTrunk schedules trunk link index ti (modulo the trunk count, in
// link-ID order) to fail at `at` and heal at `at+dur`. Call before Run.
func (c *Cluster) FlapTrunk(ti int, at, dur time.Duration) {
	trunks := trunkLinks(c.Net)
	if len(trunks) == 0 {
		return
	}
	c.ScheduleLinkFlaps([]LinkFlapEvent{{Link: trunks[ti%len(trunks)].ID, At: at, Dur: dur}})
}

// LinkFlapEvent is one scheduled fault: topology link Link goes down at At
// and heals Dur later (Dur == 0 leaves it down permanently).
type LinkFlapEvent struct {
	Link int
	At   time.Duration
	Dur  time.Duration
}

// ScheduleLinkFlaps schedules a precomputed link-fault schedule — the
// form flap storms feed with hundreds of seeded events. The fault goes
// through each cell's fabric (the wormhole fabric flushes the worms on a
// killed link) onto each cell's topology view at the same simulated
// instant: fault events are global state changes, not cross-cell
// messages, so they need no lookahead and are byte-identical for any
// worker count. Call before Run.
func (c *Cluster) ScheduleLinkFlaps(events []LinkFlapEvent) {
	for _, ev := range events {
		if ev.Link < 0 || ev.Link >= len(c.Net.Links) {
			panic(fmt.Sprintf("core: ScheduleLinkFlaps link %d out of range (%d links)", ev.Link, len(c.Net.Links)))
		}
	}
	for _, cl := range c.cells {
		for _, ev := range events {
			l := cl.nw.Links[ev.Link]
			cl.k.After(ev.At, func() { cl.fab.KillLink(l) })
			if ev.Dur > 0 {
				cl.k.After(ev.At+ev.Dur, func() { cl.nw.RestoreLink(l) })
			}
		}
	}
}

// StartFlows spawns the frame-level workload: for each flow, a sender
// process on the source host's cell pushes msgs data frames of size bytes
// with gap pacing (plus a per-flow stagger), and arms the delivery log,
// which from then on records every accepted data frame (see Deliveries).
func (c *Cluster) StartFlows(flows []Flow, msgs, bytes int, gap time.Duration) {
	if msgs == 0 {
		msgs = 6
	}
	if bytes == 0 {
		bytes = 512
	}
	if gap == 0 {
		gap = 200 * time.Microsecond
	}
	for _, cl := range c.cells {
		cl.logging = true
	}
	for i, f := range flows {
		s := c.stacks[f.Src]
		stagger := time.Duration(i%7) * 37 * time.Microsecond
		s.cell.k.Spawn(fmt.Sprintf("flow-%d-%d", f.Src, f.Dst), func(p *sim.Proc) {
			p.Sleep(stagger)
			for m := 1; m <= msgs; m++ {
				frame := &proto.Frame{
					Type: proto.FrameData,
					Dst:  f.Dst,
					Data: &proto.DataPayload{
						MsgID:  uint64(m),
						MsgLen: bytes,
						Data:   make([]byte, bytes),
						Notify: true,
					},
				}
				s.nic.Send(p, frame)
				p.Sleep(gap)
			}
		})
	}
}

// Workers returns the worker count of the parallel engine (1 on the
// one-cell plan, which runs on the calling goroutine).
func (c *Cluster) Workers() int {
	if c.eng == nil {
		return 1
	}
	return c.eng.Workers()
}

// Epochs returns how many epoch windows the parallel engine has executed
// (0 on the one-cell plan).
func (c *Cluster) Epochs() uint64 {
	if c.eng == nil {
		return 0
	}
	return c.eng.Epochs()
}

// Exchanged returns how many packets crossed cell boundaries (0 on the
// one-cell plan).
func (c *Cluster) Exchanged() uint64 {
	if c.eng == nil {
		return 0
	}
	return c.eng.Exchanged()
}

// TotalExecuted sums executed events across all cell kernels.
func (c *Cluster) TotalExecuted() uint64 {
	var t uint64
	for _, cl := range c.cells {
		t += cl.k.Executed()
	}
	return t
}

// Shards returns the number of cells in the plan.
func (c *Cluster) Shards() int { return len(c.cells) }

// CellKernel returns cell i's kernel.
func (c *Cluster) CellKernel(i int) *sim.Kernel { return c.cells[i].k }

// MergedObserver merges every cell's registry (in cell order — though
// any order gives the same result, see metrics.MergeFrom) into one fresh
// observer, materializing derived gauges at the current frontier.
func (c *Cluster) MergedObserver() *metrics.Observer {
	obs := metrics.NewObserver(c.cfg.Metrics)
	for _, cl := range c.cells {
		obs.Registry().MergeFrom(cl.obs.Registry())
	}
	return obs
}

// TraceEvents returns the deterministic cluster-wide timeline of a
// multi-cell plan: cell rings merged by (time, cell index, emission
// order). Nil on the one-cell plan, whose events go to the tracer
// installed with Config.Tracer or InstallTracer.
func (c *Cluster) TraceEvents() []trace.Event {
	var streams [][]trace.Event
	for _, cl := range c.cells {
		if cl.ring != nil {
			streams = append(streams, cl.ring.Events())
		}
	}
	if streams == nil {
		return nil
	}
	return trace.MergeStreams(streams...)
}

// Deliveries returns the merged delivery log: per-cell logs (each in
// local time order) merged by (time, cell index, log position). Empty
// until StartFlows arms the log.
func (c *Cluster) Deliveries() []Delivery {
	var out []Delivery
	for _, cl := range c.cells {
		out = append(out, cl.deliveries...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// DumpObservables renders every observable of the run as one byte
// stream — delivery log, merged metrics summary, and the merged
// Perfetto trace export — the payload of the differential determinism
// gate: byte-identical for every worker count.
func (c *Cluster) DumpObservables() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "run: cells=%d hosts=%d lookahead=%v frontier=%d exchanged=%d\n",
		len(c.cells), len(c.Hosts), c.Lookahead, c.Now(), c.Exchanged())
	b.WriteString("--- deliveries ---\n")
	for _, d := range c.Deliveries() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	b.WriteString("--- metrics ---\n")
	obs := c.MergedObserver()
	obs.SampleNow(c.Now())
	b.WriteString(obs.Summary())
	if err := obs.WriteJSONL(&b); err != nil {
		fmt.Fprintf(&b, "jsonl error: %v\n", err)
	}
	b.WriteString("--- perfetto ---\n")
	if err := trace.WriteChromeTrace(&b, c.TraceEvents()); err != nil {
		fmt.Fprintf(&b, "perfetto error: %v\n", err)
	}
	b.WriteByte('\n')
	return b.Bytes()
}
