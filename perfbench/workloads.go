package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/mapping"
	"sanft/internal/metrics"
	"sanft/internal/microbench"
	"sanft/internal/report"
	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/workload"
)

// Workload shapes. They are part of the benchmark's identity: changing one
// changes every number it reports, so a change that claims a gain leaves
// them alone.
const (
	streamMsgs  = 20000 // messages per stream repetition
	streamBytes = 4096

	kvTopo    = "fattree:16"
	kvHosts   = 9
	kvClients = 8
	kvOps     = 4000
	kvSpan    = 2 * time.Second // simulated; the op budget drains well inside it

	scaleTopo    = "fattree:16"
	scaleShards  = 16
	scaleWorkers = 2
	scaleMsgs    = 256
	scaleBytes   = 256
	scaleGap     = 125 * time.Microsecond
	scaleSpan    = 80 * time.Millisecond
)

// workloadDef is one benchmark workload: build does the set-up (topology,
// cluster, engine, traffic) and returns an instance whose run is the timed
// region.
type workloadDef struct {
	name string
	// procs is the GOMAXPROCS the workload runs under. The sequential
	// engine uses one; more would only let the garbage collector compete
	// with the simulation for a shared host's cores, so its timings would
	// measure the host's scheduler. The sharded engine gets one per worker.
	procs int
	// build gets the span recorder of a traced repetition, nil otherwise;
	// a traced repetition also installs the traced-only probes.
	build func(seed int64, tr *tracer) instance
}

type instance interface {
	// run executes the timed region. An entry point that bundles set-up
	// with the run reports the set-up share it measured from a hook.
	run() bundled
	// audit checks the simulated outputs and reads the per-layer counts.
	// It runs after the timed region.
	audit() outcome
}

// bundled is the set-up a public entry point performed inside run.
type bundled struct {
	setup        time.Duration // set-up wall time inside run
	gap          time.Duration // wall time inside run that is neither (heap probes)
	setupMallocs uint64        // allocations made by set-up and the gap
	setupBytes   uint64
	heap         uint64 // largest live heap after a set-up, 0 when not measured
}

// counts are per-layer totals read after a repetition from the program's
// public accessors. All are simulated quantities, so the same seed gives
// the same counts.
type counts struct {
	Ops, Attempted, Lost uint64

	Events, Scheduled, Cancelled uint64
	ArenaHighWater               int

	FabInjected, FabDropped uint64
	BlockNS                 int64 // traced repetitions only

	Sent, AcksSent, AcksPiggybacked, SendStalls, Retransmitted, DupDrops uint64

	HostProbes, SwitchProbes, RemapAttempts, RemapSuccesses uint64

	Epochs, Exchanged uint64
	Spurious          uint64
}

// failed is the attempted ops the audit neither saw complete nor admits
// as a designed loss.
func (c counts) failed() uint64 {
	if c.Ops+c.Lost >= c.Attempted {
		return 0
	}
	return c.Attempted - c.Ops - c.Lost
}

// outcome is what audit returns: the counts, a digest of the simulated
// outputs, and the first audit failure.
type outcome struct {
	counts
	digest string
	err    error
	// engine is the sharded engine's profile split (traced scale only).
	engine *engineSplit
}

type engineSplit struct {
	busy, stall, exchange, poolHit float64
}

var workloads = []workloadDef{
	{"stream", 1, buildStream},
	{"kv", 1, buildKV},
	{"faults", 1, buildFaults},
	{"scale", scaleWorkers, buildScale},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func addKernel(into *counts, ks sim.KernelStats) {
	into.Events += ks.Executed
	into.Scheduled += ks.Scheduled
	into.Cancelled += ks.Cancelled
	if ks.ArenaHighWater > into.ArenaHighWater {
		into.ArenaHighWater = ks.ArenaHighWater
	}
}

func addRegistry(into *counts, r *metrics.Registry) {
	into.Sent += r.CounterTotal("nic.pkts-sent")
	into.AcksSent += r.CounterTotal("nic.acks-sent")
	into.AcksPiggybacked += r.CounterTotal("nic.acks-piggybacked")
	into.SendStalls += r.CounterTotal("nic.send-buffer-stall")
	into.Retransmitted += r.CounterTotal("nic.pkts-retransmitted")
	into.DupDrops += r.CounterTotal("nic.rx-dup-drops")
	into.HostProbes += r.CounterTotal("mapping.host_probes")
	into.SwitchProbes += r.CounterTotal("mapping.switch_probes")
	into.RemapAttempts += r.CounterTotal("remap.attempts")
	into.RemapSuccesses += r.CounterTotal("remap.successes")
}

// addSequential reads a sequential-engine cluster's counts.
func addSequential(into *counts, c *core.Cluster) {
	addKernel(into, c.K.Stats())
	fs := c.Fab.Stats()
	into.FabInjected += fs.Injected
	into.FabDropped += fs.TotalDropped()
	addRegistry(into, c.Metrics())
}

// --- stream -----------------------------------------------------------------

// stream is the paper's unidirectional-bandwidth microbenchmark: 4 KB VMMC
// messages back to back between two hosts on one switch, FT on, no faults.
type streamInst struct {
	tr    *tracer
	c     *core.Cluster
	meter *blockMeter
	res   microbench.BandwidthResult
}

func buildStream(seed int64, tr *tracer) instance {
	s := &streamInst{tr: tr}
	var nw *topology.Network
	var hosts []topology.NodeID
	tr.do("topology.Star", func() { nw, hosts = topology.Star(2) })
	tr.do("core.New", func() {
		s.c = core.New(core.Config{
			Net: nw, Hosts: hosts, FT: true,
			Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond},
			Seed:    seed,
		})
	})
	if tr != nil {
		s.meter = newBlockMeter()
		s.c.InstallTracer(s.meter)
	}
	return s
}

func (s *streamInst) run() bundled {
	s.tr.do("microbench.Unidirectional", func() {
		s.res = microbench.Unidirectional(s.c, streamBytes, streamMsgs)
	})
	return bundled{}
}

func (s *streamInst) audit() outcome {
	var o outcome
	o.Ops = uint64(s.res.Messages)
	o.Attempted = streamMsgs
	addSequential(&o.counts, s.c)
	if s.meter != nil {
		o.BlockNS = int64(s.meter.total)
	}
	if s.res.Messages != streamMsgs {
		o.err = fmt.Errorf("stream: delivered %d of %d messages", s.res.Messages, streamMsgs)
	}
	o.digest = digestOf(struct {
		Delivered int
		MBps      float64
		End       sim.Time // the last delivery stops the run
		Kernel    sim.KernelStats
	}{s.res.Messages, s.res.MBps, s.c.Now(), s.c.K.Stats()})
	return o
}

// --- kv ---------------------------------------------------------------------

// kv is the default sanload cell: closed-loop replicated KV on fattree:16
// under a link flap on a trunk the traffic uses, with on-demand mapping on.
type kvInst struct {
	tr    *tracer
	c     *core.Cluster
	e     *chaos.Engine
	d     *workload.Driver
	meter *blockMeter
}

func buildKV(seed int64, tr *tracer) instance {
	k := &kvInst{tr: tr}
	var b *topology.Built
	var err error
	tr.do("topology.ParseSpec", func() { b, err = topology.ParseSpec(kvTopo) })
	if err != nil {
		panic(err)
	}
	hosts := strideHosts(b.Hosts, kvHosts)
	tr.do("core.New", func() {
		k.c = core.New(core.Config{
			Net: b.Net, Hosts: hosts, FT: true,
			Retrans: retrans.Config{
				QueueSize:         16,
				Interval:          time.Millisecond,
				PermFailThreshold: 8 * time.Millisecond,
			},
			Mapper:    true,
			MapperCfg: mapping.Config{MaxRadix: maxSwitchRadix(b.Net)},
			Seed:      seed,
		})
	})
	if tr != nil {
		k.meter = newBlockMeter()
		k.c.InstallTracer(k.meter)
	}
	tr.do("chaos.NewEngine", func() { k.e = chaos.NewEngine(k.c, seed) })
	// A third of the hosts serve (the sanload split), so puts replicate
	// primary → backup.
	servers, clients := hosts[:kvHosts/3], hosts[kvHosts/3:]
	spec := workload.Spec{
		Proto: workload.ProtoKV, Mode: workload.ModeClosed, Seed: seed,
		Clients: kvClients, Ops: kvOps,
		SLO: report.SLO{Latency: time.Millisecond, Window: 50 * time.Millisecond},
	}
	tr.do("workload.Attach", func() { k.d = workload.Attach(k.e, spec, clients, servers) })
	tr.do("workload.InstallFault", func() { err = workload.InstallFault(k.e, "linkflap", clients[0], servers[0]) })
	if err != nil {
		panic(err)
	}
	return k
}

func (k *kvInst) run() bundled {
	k.tr.do("core.Cluster.RunFor", func() {
		k.c.RunFor(kvSpan)
		k.c.Stop()
	})
	return bundled{}
}

func (k *kvInst) audit() outcome {
	var o outcome
	var res report.SLOResult
	k.tr.do("workload.Driver.Result", func() { res = k.d.Result(kvTopo, "linkflap", kvSpan) })
	var vios []chaos.Violation
	k.tr.do("chaos.CheckInvariants", func() {
		vios = chaos.CheckInvariants(k.e, k.d.Run(), chaos.CheckOpts{MaxRemapAttempts: 400})
	})
	o.Ops = res.Completed
	o.Attempted = res.Issued
	o.Spurious = k.d.Spurious()
	addSequential(&o.counts, k.c)
	if k.meter != nil {
		o.BlockNS = int64(k.meter.total)
	}
	switch {
	case len(vios) > 0:
		o.err = fmt.Errorf("kv: %d invariant violations, first: %s", len(vios), vios[0])
	case res.Completed != kvOps || res.Errors != 0:
		o.err = fmt.Errorf("kv: %d of %d ops completed, %d errors", res.Completed, kvOps, res.Errors)
	}
	m := k.e.MTTR()
	o.digest = digestOf(struct {
		SLO             report.SLOResult
		MTTRn           uint64
		MTTR50, MTTR99  time.Duration
		MTTR999         time.Duration
		Kernel          sim.KernelStats
		Remaps, Unreach int
	}{res, m.Count(), m.Quantile(0.5), m.Quantile(0.99), m.Quantile(0.999),
		k.c.K.Stats(), k.c.Remaps, k.c.Unreachables})
	return o
}

// strideHosts picks n hosts spread evenly across the list (the sanload
// replica's choice), so the cell spans distant pods.
func strideHosts(all []topology.NodeID, n int) []topology.NodeID {
	stride := len(all) / n
	out := make([]topology.NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*stride])
	}
	return out
}

// maxSwitchRadix bounds the mapper's port scan to ports the fabric has.
func maxSwitchRadix(nw *topology.Network) int {
	r := 0
	for _, id := range nw.Switches() {
		if k := nw.Node(id).Radix(); k > r {
			r = k
		}
	}
	return r
}

// --- faults -----------------------------------------------------------------

// faults runs the nine baseline chaos campaigns. Each campaign builds its own
// cluster inside its public entry point, so set-up is split from the run by
// the traffic-injection hook, which fires once the cluster, engine and
// traffic are built. The injector starts the campaign's own default
// workload, so the campaign runs exactly as it does without one.
type faultsInst struct {
	tr   *tracer
	seed int64

	reports []*chaos.Report
	engines []*chaos.Engine
	runs    []*chaos.Run
	meters  []*blockMeter
}

func buildFaults(seed int64, tr *tracer) instance {
	return &faultsInst{tr: tr, seed: seed}
}

func (f *faultsInst) run() bundled {
	var b bundled
	var m0, m1 runtime.MemStats
	for _, camp := range chaos.Campaigns() {
		var e *chaos.Engine
		var r *chaos.Run
		var meter *blockMeter
		var hook, resume time.Time
		pre := func(c *core.Cluster) {
			if f.tr != nil {
				meter = newBlockMeter()
				c.InstallTracer(meter)
			}
		}
		inj := func(eng *chaos.Engine, dflt chaos.Workload) *chaos.Run {
			e, r = eng, dflt.Start(eng)
			// Set-up ends here; measure the built campaign's live heap,
			// keeping the probe out of both set-up and run.
			hook = time.Now()
			runtime.GC()
			runtime.ReadMemStats(&m1)
			if m1.HeapAlloc > b.heap {
				b.heap = m1.HeapAlloc
			}
			resume = time.Now()
			return r
		}
		var rep *chaos.Report
		var start time.Time
		runtime.ReadMemStats(&m0)
		f.tr.do("chaos.Campaign.RunWithTraffic", func() {
			start = time.Now()
			rep = camp.RunWithTraffic(f.seed, pre, inj)
			f.tr.interval("chaos.Campaign.setup", start, hook)
		})
		b.setup += hook.Sub(start)
		b.gap += resume.Sub(hook)
		b.setupMallocs += m1.Mallocs - m0.Mallocs
		b.setupBytes += m1.TotalAlloc - m0.TotalAlloc
		f.reports = append(f.reports, rep)
		f.engines = append(f.engines, e)
		f.runs = append(f.runs, r)
		f.meters = append(f.meters, meter)
	}
	return b
}

func (f *faultsInst) audit() outcome {
	var o outcome
	type campDigest struct {
		Name                              string
		Faults, Expected, Delivered, Dups int
		Remaps, Unreachables              int
		RemapStats                        core.RemapStats
		MTTR50, MTTR99, MTTR999           time.Duration
		Kernel                            sim.KernelStats
	}
	var ds []campDigest
	for i, rep := range f.reports {
		e := f.engines[i]
		if !rep.Passed() {
			o.err = fmt.Errorf("faults: campaign %s: %s", rep.Campaign, rep.Violations[0])
		}
		// The campaign audited itself inside its entry point; auditing again
		// from outside times the oracle on its own (under AllowLoss, which
		// every campaign's contract implies).
		var vios []chaos.Violation
		f.tr.do("chaos.CheckInvariants", func() {
			vios = chaos.CheckInvariants(e, f.runs[i], chaos.CheckOpts{AllowLoss: true})
		})
		if len(vios) > 0 && o.err == nil {
			o.err = fmt.Errorf("faults: campaign %s re-audit: %s", rep.Campaign, vios[0])
		}
		o.Ops += uint64(rep.Delivered)
		o.Attempted += uint64(rep.Expected)
		o.Lost += uint64(rep.Expected - rep.Delivered)
		addSequential(&o.counts, e.C)
		if f.meters[i] != nil {
			o.BlockNS += int64(f.meters[i].total)
		}
		ds = append(ds, campDigest{rep.Campaign, rep.Faults, rep.Expected, rep.Delivered,
			rep.Duplicates, rep.Remaps, rep.Unreachables, rep.RemapStats,
			rep.MTTRp50, rep.MTTRp99, rep.MTTRp999, e.C.K.Stats()})
	}
	o.digest = digestOf(ds)
	return o
}

// --- scale ------------------------------------------------------------------

// scale is chaos.RunScale's shape driven through the same public steps: a
// flap storm over every trunk of a 1024-host fattree:16 on the sharded
// engine, a half-fabric-away flow matrix, and an exactly-once audit.
type scaleInst struct {
	tr    *tracer
	c     *core.Cluster
	flows []core.Flow
}

func buildScale(seed int64, tr *tracer) instance {
	s := &scaleInst{tr: tr}
	var b *topology.Built
	var err error
	tr.do("topology.ParseSpec", func() { b, err = topology.ParseSpec(scaleTopo) })
	if err != nil {
		panic(err)
	}
	tr.do("core.New", func() {
		s.c = core.New(core.Config{
			Net: b.Net, Hosts: b.Hosts, FT: true,
			Retrans: retrans.Config{
				QueueSize: 16,
				Interval:  time.Millisecond,
				// As in RunScale: no mapper on the sharded engine, so the
				// permanent-failure verdict sits past the end of the run.
				PermFailThreshold: 4 * scaleSpan,
			},
			Engine:  core.EngineSharded,
			Plan:    core.ShardPlan{HostsPerShard: len(b.Hosts) / scaleShards},
			Workers: scaleWorkers,
			Seed:    seed,
			Profile: tr != nil,
		})
	})
	ids := make([]int, len(b.Trunks))
	for i, l := range b.Trunks {
		ids[i] = l.ID
	}
	var sched []core.LinkFlapEvent
	tr.do("chaos.FlapStormSchedule", func() {
		sched = chaos.FlapStormSchedule(ids, seed, 96, 30*time.Millisecond, time.Millisecond, 4*time.Millisecond)
	})
	for i := range sched {
		sched[i].At += 2 * time.Millisecond
	}
	tr.do("core.Cluster.ScheduleLinkFlaps", func() { s.c.ScheduleLinkFlaps(sched) })
	s.flows = chaos.ScaleFlows(b.Hosts, 0)
	tr.do("core.Cluster.StartFlows", func() { s.c.StartFlows(s.flows, scaleMsgs, scaleBytes, scaleGap) })
	return s
}

func (s *scaleInst) run() bundled {
	s.tr.do("core.Cluster.RunFor", func() {
		s.c.RunFor(scaleSpan)
		s.c.Stop()
	})
	return bundled{}
}

func (s *scaleInst) audit() outcome {
	var o outcome
	type key struct {
		src, dst topology.NodeID
		msg      uint64
	}
	seen := make(map[key]int)
	var atSum sim.Time // pins when each delivery happened, not just that it did
	s.tr.do("core.Cluster.Deliveries", func() {
		for _, d := range s.c.Deliveries() {
			seen[key{d.Src, d.Dst, d.Msg}]++
			atSum += d.At
		}
	})
	missing, extra := 0, 0
	for _, fl := range s.flows {
		for m := 1; m <= scaleMsgs; m++ {
			switch n := seen[key{fl.Src, fl.Dst, uint64(m)}]; {
			case n == 0:
				missing++
			default:
				o.Ops++
				extra += n - 1
			}
		}
	}
	o.Attempted = uint64(len(s.flows) * scaleMsgs)
	if missing > 0 || extra > 0 {
		o.err = fmt.Errorf("scale: %d (flow, msg) pairs never delivered, %d duplicate deliveries", missing, extra)
	}
	for i := 0; i < s.c.Shards(); i++ {
		addKernel(&o.counts, s.c.CellKernel(i).Stats())
	}
	addRegistry(&o.counts, s.c.MergedObserver().Registry())
	o.Epochs = s.c.Epochs()
	o.Exchanged = s.c.Exchanged()
	if p := s.c.EngineProfile(); p != nil {
		sum := p.Summarize()
		gets := p.Pools.FrameGets + p.Pools.PacketGets
		misses := p.Pools.FrameMisses + p.Pools.PacketMisses
		split := &engineSplit{busy: sum.BusyFrac, stall: sum.StallFrac, exchange: sum.ExchangeFrac}
		if gets > 0 {
			split.poolHit = float64(gets-misses) / float64(gets)
		}
		o.engine = split
	}
	o.digest = digestOf(struct {
		Delivered, Expected, Duplicates int
		DeliveryTimes                   sim.Time
		Epochs, Exchanged, Executed     uint64
	}{int(o.Ops), int(o.Attempted), extra, atSum, o.Epochs, o.Exchanged, s.c.TotalExecuted()})
	return o
}
