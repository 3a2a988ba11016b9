package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sanft/internal/liveness"
	"sanft/internal/mapping"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// halfwayFlows pairs every host with the one half the host list away, so
// on a pod-major fattree every flow leaves its pod.
func halfwayFlows(hosts []topology.NodeID) []Flow {
	flows := make([]Flow, len(hosts))
	for i, h := range hosts {
		flows[i] = Flow{Src: h, Dst: hosts[(i+len(hosts)/2)%len(hosts)]}
	}
	return flows
}

// exactlyOnce fails t unless every (flow, msg) of the workload appears in
// the delivery log exactly once.
func exactlyOnce(t *testing.T, c *Cluster, flows []Flow, msgs int) {
	t.Helper()
	type key struct {
		src, dst topology.NodeID
		msg      uint64
	}
	seen := make(map[key]int)
	for _, d := range c.Deliveries() {
		seen[key{d.Src, d.Dst, d.Msg}]++
	}
	for _, f := range flows {
		for m := 1; m <= msgs; m++ {
			if n := seen[key{f.Src, f.Dst, uint64(m)}]; n != 1 {
				t.Errorf("flow %d->%d msg %d delivered %d times", f.Src, f.Dst, m, n)
			}
		}
	}
}

// firstTrunk returns the first switch-to-switch link on route r from src.
func firstTrunk(t *testing.T, nw *topology.Network, src topology.NodeID, r routing.Route) *topology.Link {
	t.Helper()
	w, err := routing.Walk(nw, src, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, sw := range w.Switches {
		l := nw.Node(sw).Ports[r[i]]
		if nw.Node(l.Other(sw).Node).Kind == topology.Switch {
			return l
		}
	}
	t.Fatalf("route %v from %d crosses no trunk", r, src)
	return nil
}

// TestParallelPermanentFailureRemap runs the paper's permanent-failure
// path (§4.2) on a multi-cell plan: a trunk on a live route dies for
// good, the retransmission protocol declares the path stale, and the
// on-demand mapper — probing across cells as ordinary packets — installs
// a new route. Every message still arrives exactly once, and the run is
// byte-identical for every worker count.
func TestParallelPermanentFailureRemap(t *testing.T) {
	const msgs = 12
	run := func(workers int) (*Cluster, []Flow) {
		b, err := topology.ParseSpec("fattree:4")
		if err != nil {
			t.Fatal(err)
		}
		c := New(Config{
			Net: b.Net, Hosts: b.Hosts, FT: true,
			Retrans: retrans.Config{
				QueueSize:         16,
				Interval:          time.Millisecond,
				PermFailThreshold: 4 * time.Millisecond,
			},
			Mapper:    true,
			MapperCfg: mapping.Config{MaxRadix: 4},
			Plan:      ShardPlan{HostsPerShard: 4},
			Workers:   workers,
			Seed:      11,
		})
		flows := halfwayFlows(b.Hosts)
		r, _ := c.NIC(flows[0].Src).Route(flows[0].Dst)
		kill := firstTrunk(t, b.Net, flows[0].Src, r)
		c.ScheduleLinkFlaps([]LinkFlapEvent{{Link: kill.ID, At: time.Millisecond}})
		c.StartFlows(flows, msgs, 512, 300*time.Microsecond)
		c.RunFor(250 * time.Millisecond)
		c.Stop()
		return c, flows
	}
	c, flows := run(1)
	if c.Shards() != 4 {
		t.Fatalf("cells = %d, want 4", c.Shards())
	}
	if c.Remaps == 0 {
		t.Fatalf("no remap after a permanent trunk failure (stats %+v)", c.RemapStats)
	}
	exactlyOnce(t, c, flows, msgs)
	if running, armed := c.RemapInFlight(); running != 0 {
		t.Errorf("remaps still running at quiesce: %d (armed %d)", running, armed)
	}
	want := c.DumpObservables()
	for _, w := range []int{2, 4} {
		got, _ := run(w)
		if !bytes.Equal(got.DumpObservables(), want) {
			t.Fatalf("workers=%d dump differs from workers=1", w)
		}
		if got.Remaps != c.Remaps || got.RemapStats != c.RemapStats {
			t.Fatalf("workers=%d remaps %d %+v, workers=1 %d %+v", w, got.Remaps, got.RemapStats, c.Remaps, c.RemapStats)
		}
	}
}

// TestParallelRouteInstallDeterministic pins route installation order on
// a multi-cell plan with liveness on: every SetRoute starts a session
// whose first transmission is scheduled on the cell kernel, so installing
// in map order made two identical builds diverge.
func TestParallelRouteInstallDeterministic(t *testing.T) {
	build := func() []byte {
		b, err := topology.ParseSpec("fattree:8")
		if err != nil {
			t.Fatal(err)
		}
		c := New(Config{
			Net: b.Net, Hosts: b.Hosts, FT: true,
			Liveness: &liveness.Config{},
			Plan:     ShardPlan{HostsPerShard: 16},
			Workers:  1,
			Seed:     7,
		})
		c.RunFor(3 * time.Millisecond)
		c.Stop()
		return c.DumpObservables()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical builds dumped %d and %d bytes", len(a), len(b))
	}
}

// TestParallelVMMCAcrossCells exports a buffer on one cell of a two-cell
// star and imports, sends to and waits on it from the other: the VMMC
// layer works unchanged across the cell boundary, byte-identically for
// every worker count.
func TestParallelVMMCAcrossCells(t *testing.T) {
	run := func(workers int) ([]byte, []vmmcNote) {
		c := New(Config{NumHosts: 4, FT: true, Plan: ShardPlan{HostsPerShard: 2}, Workers: workers, Seed: 3})
		src, dst := c.Host(0), c.Host(3)
		exp := c.Endpoint(dst).Export("inbox", 8192)
		var notes []vmmcNote
		c.CellKernel(1).Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				n := exp.WaitNotification(p)
				notes = append(notes, vmmcNote{n.Src, n.MsgID, n.Len, p.Now()})
			}
		})
		c.CellKernel(0).Spawn("send", func(p *sim.Proc) {
			imp, err := c.Endpoint(src).Import(dst, "inbox")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 3; i++ {
				imp.Send(p, 0, bytes.Repeat([]byte{byte(i + 1)}, 3000), true)
			}
		})
		c.RunFor(10 * time.Millisecond)
		c.Stop()
		if got := exp.Mem[0]; got != 3 {
			t.Errorf("workers=%d: buffer holds %d, want the last message's 3", workers, got)
		}
		return c.DumpObservables(), notes
	}
	d1, n1 := run(1)
	if len(n1) != 3 {
		t.Fatalf("got %d notifications, want 3", len(n1))
	}
	d2, n2 := run(2)
	if !bytes.Equal(d1, d2) || len(n2) != len(n1) {
		t.Fatal("workers=2 run differs from workers=1")
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("notification %d: %+v vs %+v", i, n1[i], n2[i])
		}
	}
}

type vmmcNote struct {
	src topology.NodeID
	msg uint64
	len int
	at  sim.Time
}

// TestPipeMatchesWormholeUncontended is the fidelity oracle for Pipe's
// claim that its latency is exactly the wormhole fabric's uncontended
// pipeline: one paced flow over a fattree runs on the one-cell plan
// (wormhole Fabric) and on one host per cell (Pipe), and every delivery
// must land at the same instant.
func TestPipeMatchesWormholeUncontended(t *testing.T) {
	run := func(plan ShardPlan) []Delivery {
		b, err := topology.ParseSpec("fattree:4")
		if err != nil {
			t.Fatal(err)
		}
		c := New(Config{Net: b.Net, Hosts: b.Hosts, FT: true, Plan: plan, Seed: 5})
		c.StartFlows([]Flow{{Src: b.Hosts[0], Dst: b.Hosts[13]}}, 10, 2048, 100*time.Microsecond)
		c.RunFor(5 * time.Millisecond)
		c.Stop()
		return c.Deliveries()
	}
	worm, pipe := run(ShardPlan{}), run(ShardPlan{HostsPerShard: 1})
	if len(worm) != 10 || len(pipe) != 10 {
		t.Fatalf("delivered %d (wormhole) and %d (pipe), want 10 each", len(worm), len(pipe))
	}
	for i := range worm {
		if worm[i] != pipe[i] {
			t.Errorf("delivery %d: wormhole %v, pipe %v", i, worm[i], pipe[i])
		}
	}
}

// TestScheduleLinkFlapsBothPlans kills and heals the trunk a flow uses on
// either plan: the fault is visible on each cell's topology view while it
// lasts, and retransmission delivers everything once it heals.
func TestScheduleLinkFlapsBothPlans(t *testing.T) {
	for _, plan := range []ShardPlan{{}, {HostsPerShard: 2}} {
		nw, hosts := topology.DoubleStar(4)
		c := New(Config{Net: nw, Hosts: hosts, FT: true, Plan: plan, Seed: 2})
		flows := []Flow{{Src: hosts[0], Dst: hosts[3]}}
		r, _ := c.NIC(hosts[0]).Route(hosts[3])
		l := firstTrunk(t, nw, hosts[0], r)
		c.ScheduleLinkFlaps([]LinkFlapEvent{{Link: l.ID, At: 500 * time.Microsecond, Dur: 2 * time.Millisecond}})
		c.StartFlows(flows, 8, 256, 200*time.Microsecond)
		c.RunFor(time.Millisecond)
		for i := 0; i < c.Shards(); i++ {
			if c.cells[i].nw.LinkUsable(c.cells[i].nw.Links[l.ID]) {
				t.Fatalf("plan %+v: link %d still up in cell %d mid-fault", plan, l.ID, i)
			}
		}
		c.RunFor(40 * time.Millisecond)
		c.Stop()
		exactlyOnce(t, c, flows, 8)
	}
}

// TestMultiCellTracerForwarded checks Config.Tracer on several cells: the
// tracer receives the merged cell timeline at each RunFor boundary.
func TestMultiCellTracerForwarded(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	c := New(Config{NumHosts: 4, FT: true, Plan: ShardPlan{HostsPerShard: 2}, Tracer: ring, Seed: 4})
	c.StartFlows([]Flow{{Src: c.Host(0), Dst: c.Host(3)}}, 4, 256, 0)
	c.RunFor(2 * time.Millisecond)
	c.RunFor(8 * time.Millisecond)
	c.Stop()
	want := c.TraceEvents()
	got := ring.Events()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("tracer got %d events, cells recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: tracer %v, cells %v", i, got[i], want[i])
		}
	}
	if c.Tracer() != trace.Tracer(ring) {
		t.Fatal("Tracer() does not return the configured tracer")
	}
}

// TestMultiCellRejectsSampling: periodic sampling needs one kernel to
// drive it, so New rejects it on several cells with a pointer to the
// alternative.
func TestMultiCellRejectsSampling(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "SampleEvery") {
			t.Fatalf("New accepted SampleEvery on a multi-cell plan (recovered %v)", r)
		}
	}()
	cfg := Config{NumHosts: 4, Plan: ShardPlan{HostsPerShard: 2}}
	cfg.Metrics.SampleEvery = time.Millisecond
	New(cfg)
}

// TestStopSoonMultiCell stops a multi-cell run from process context: the
// run ends at the close of the current epoch window, at the same frontier
// for every worker count, and later RunFor calls do not resume it.
func TestStopSoonMultiCell(t *testing.T) {
	run := func(workers int) (sim.Time, int) {
		c := New(Config{NumHosts: 4, FT: true, Plan: ShardPlan{HostsPerShard: 2}, Workers: workers, Seed: 6})
		c.StartFlows([]Flow{{Src: c.Host(0), Dst: c.Host(3)}, {Src: c.Host(3), Dst: c.Host(0)}}, 50, 256, 100*time.Microsecond)
		c.CellKernel(1).Spawn("stopper", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			c.StopSoon()
		})
		c.RunFor(20 * time.Millisecond)
		at := c.Now()
		c.RunFor(20 * time.Millisecond)
		if c.Now() != at {
			t.Errorf("workers=%d: a stopped cluster advanced from %v to %v", workers, at, c.Now())
		}
		c.Stop()
		return at, len(c.Deliveries())
	}
	at1, n1 := run(1)
	if at1 >= sim.Time(2*time.Millisecond) || n1 >= 100 {
		t.Fatalf("run went on past StopSoon: frontier %v, %d deliveries", at1, n1)
	}
	if at2, n2 := run(2); at2 != at1 || n2 != n1 {
		t.Fatalf("workers=2 stopped at %v with %d deliveries, workers=1 at %v with %d", at2, n2, at1, n1)
	}
}

// TestAccessorsOnBothPlans: every accessor answers on every plan, with
// the documented zero values where a plan has nothing to report.
func TestAccessorsOnBothPlans(t *testing.T) {
	one := New(Config{NumHosts: 2, FT: true})
	many := New(Config{NumHosts: 2, FT: true, Engine: EngineSharded})
	for _, c := range []*Cluster{one, many} {
		if c.Endpoint(c.Host(1)) == nil || c.EndpointAt(0) == nil || c.NICAt(1) == nil {
			t.Fatal("per-host accessors returned nil")
		}
		if c.NIC(topology.NodeID(999)) != nil || c.Endpoint(topology.NodeID(999)) != nil {
			t.Fatal("accessors invented a stack for a stranger node")
		}
		if c.Observer() == nil || c.Metrics() == nil || c.MergedObserver() == nil {
			t.Fatal("observer accessors returned nil")
		}
		if c.Mapper(c.Host(0)) != nil || c.Quarantined(c.Host(0), c.Host(1)) {
			t.Fatal("mapping accessors report state with mapping off")
		}
	}
	if one.Shards() != 1 || one.Workers() != 1 || one.Epochs() != 0 || one.Exchanged() != 0 ||
		one.Lookahead != 0 || one.TraceEvents() != nil || one.K == nil || one.Fab == nil {
		t.Fatal("one-cell plan zero values wrong")
	}
	if many.Shards() != 2 || many.Lookahead == 0 || many.K != nil || many.Fab != nil {
		t.Fatal("multi-cell plan shape wrong")
	}
	for _, c := range []*Cluster{one, many} {
		c.StartFlows([]Flow{{Src: c.Host(0), Dst: c.Host(1)}}, 2, 64, 0)
		c.RunFor(5 * time.Millisecond)
		var sum uint64
		for i := 0; i < c.Shards(); i++ {
			sum += c.CellKernel(i).Executed()
		}
		if c.TotalExecuted() == 0 || c.TotalExecuted() != sum || len(c.Deliveries()) != 2 {
			t.Fatalf("executed %d (cells %d), delivered %d", c.TotalExecuted(), sum, len(c.Deliveries()))
		}
		c.Stop()
	}
	if EngineSequential.String() != "sequential" || EngineSharded.String() != "sharded" || EngineKind(9).String() != "unknown" {
		t.Fatal("EngineKind names wrong")
	}
}

// TestEngineProfileOnBothPlans: the profiler reports one kernel per cell
// on either plan; epoch spans exist only where there is an epoch loop.
func TestEngineProfileOnBothPlans(t *testing.T) {
	for _, plan := range []ShardPlan{{}, {HostsPerShard: 1}} {
		c := New(Config{NumHosts: 2, FT: true, Plan: plan, Profile: true, Seed: 8})
		c.ProfileSpans(64)
		c.StartFlows([]Flow{{Src: c.Host(0), Dst: c.Host(1)}}, 4, 256, 0)
		c.RunFor(5 * time.Millisecond)
		c.Stop()
		p := c.EngineProfile()
		if p == nil || len(p.Kernels) != c.Shards() || p.Kernels[0].Executed == 0 {
			t.Fatalf("plan %+v: profile %+v", plan, p)
		}
		if spans := len(p.Spans) > 0; spans != (c.Shards() > 1) {
			t.Fatalf("plan %+v: %d spans on %d cells", plan, len(p.Spans), c.Shards())
		}
	}
}
