// Package core assembles the full simulated platform: topology, fabric,
// NICs (with or without the firmware retransmission protocol), VMMC
// endpoints, error injection, and — when enabled — per-NIC on-demand
// mappers wired to the permanent-failure detector. One Cluster is one
// reproducible experiment instance.
package core

import (
	"sync"
	"time"

	"sanft/internal/enginestat"
	"sanft/internal/fabric"
	"sanft/internal/liveness"
	"sanft/internal/mapping"
	"sanft/internal/metrics"
	"sanft/internal/nic"
	"sanft/internal/parsim"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
	"sanft/internal/vmmc"
)

// EngineKind selects how a Cluster partitions its hosts into cells.
type EngineKind int

const (
	// EngineSequential is the default: the one-cell plan, where a single
	// kernel drives every host over the wormhole fabric.
	EngineSequential EngineKind = iota
	// EngineSharded partitions the hosts into several cells driven by the
	// conservative parallel engine. The partition — not the worker
	// count — defines the semantics: results are byte-identical for any
	// number of workers.
	EngineSharded
)

func (k EngineKind) String() string {
	switch k {
	case EngineSequential:
		return "sequential"
	case EngineSharded:
		return "sharded"
	}
	return "unknown"
}

// ShardPlan describes how EngineSharded partitions hosts into cells. The
// plan is part of the experiment's identity: changing it changes which
// traffic crosses epoch barriers, so differential gates must pin it. The
// zero plan is one host per cell — the finest partition.
type ShardPlan struct {
	// HostsPerShard, when > 0, chunks the host list in order into groups
	// of this size (last group may be smaller). Coarser cells shorten
	// the per-epoch fixed cost and keep intra-group traffic off the
	// barrier path at the price of less available parallelism.
	HostsPerShard int
	// Groups, when non-empty, is an explicit partition and overrides
	// HostsPerShard. Every host must appear in exactly one group.
	Groups [][]topology.NodeID
}

// zero reports whether the plan is the default one-host-per-cell plan.
func (p ShardPlan) zero() bool { return p.HostsPerShard == 0 && len(p.Groups) == 0 }

// Config describes a cluster build.
type Config struct {
	// Net and Hosts define the wiring; if Net is nil, a single-switch
	// star of NumHosts hosts is built.
	Net      *topology.Network
	Hosts    []topology.NodeID
	NumHosts int

	// FT enables the firmware retransmission protocol on every NIC.
	FT bool
	// Retrans holds protocol parameters (queue size q, timer interval T,
	// permanent-failure threshold, ...). Zero fields take the paper's
	// best-compromise defaults. The queue size also bounds the send
	// buffer pool when FT is off — provisioning is independent of
	// whether the protocol consumes acknowledgments.
	Retrans retrans.Config
	// ErrorRate is the paper's send-side injected drop rate (e.g. 1e-3);
	// each NIC gets its own deterministic dropper. Zero means no errors.
	ErrorRate float64

	// Liveness, when non-nil, runs a BFD-style session on every routed
	// path: sessions detect dead paths after DetectMult negotiated
	// intervals of control silence — typically well before the fixed
	// permanent-failure threshold — and feed the same remap/quarantine
	// recovery path. Requires FT. The Seed field is a base; each session
	// derives its own jitter stream from it.
	Liveness *liveness.Config

	// Cost overrides the NIC hardware cost model (zero = calibrated
	// defaults); Fabric overrides wire constants (zero = defaults).
	Cost   nic.CostModel
	Fabric fabric.Config

	// Mapper enables on-demand mapping: stale paths and missing routes
	// trigger a background remap exactly as §4.2 describes. Requires FT.
	Mapper    bool
	MapperCfg mapping.Config

	// Remap paces the recovery path: remaps to one destination coalesce,
	// failures back off exponentially with jitter, and persistent failures
	// quarantine the destination. Zero fields take defaults.
	Remap RemapPolicy
	// OnUnreachable fires when src quarantines dst after repeated failed
	// remaps — the explicit graceful-degradation upcall, instead of
	// silently retrying forever. On a multi-cell plan the calls are
	// queued and made at the next RunFor/Stop boundary, in simulated-time
	// order.
	OnUnreachable func(src, dst topology.NodeID)

	// Metrics tunes the observability layer. The zero value still builds
	// a full registry (all subsystems record unconditionally); set
	// SampleEvery to also collect a periodic time series (one-cell plan
	// only: New rejects it on a multi-cell plan).
	Metrics metrics.Config

	// Tracer, if non-nil, receives every trace event from every layer:
	// NIC protocol actions, fabric hop events, VMMC message lifecycle,
	// and remap lifecycle. Typically a *trace.Ring or *trace.FlightRecorder.
	// On a multi-cell plan the events reach it in merged timeline order
	// at each RunFor/Stop boundary (see InstallTracer).
	Tracer trace.Tracer

	// Seed drives all deterministic randomness.
	Seed int64

	// Profile enables the engine wall-clock profiler: per-worker epoch
	// accounting in the parallel engine, kernel event counters, and
	// frame/packet pool traffic, collected worker-locally and read back
	// through EngineProfile after the run. Off by default; profiling
	// never changes simulation results (it reads clocks, feeds nothing
	// back), so profiled dumps stay byte-identical to unprofiled ones.
	Profile bool

	// Telemetry, when non-empty, starts a live telemetry HTTP server on
	// this address (host:port; port 0 picks one — see Telemetry().Addr()):
	// Prometheus /metrics, /debug/pprof, expvar, engine /profile.
	// Metrics snapshots publish on every observer sample and at
	// RunFor/Stop boundaries. The server outlives Stop so a final scrape
	// can read the end state; the owner closes it via Telemetry().Close().
	Telemetry string

	// Engine selects the plan: EngineSequential (the default) is the
	// one-cell plan; EngineSharded, or any non-zero Plan, is a multi-cell
	// plan.
	Engine EngineKind
	// Plan partitions hosts into cells under EngineSharded (zero = one
	// host per cell).
	Plan ShardPlan
	// Workers is the OS-thread count driving the cell kernels of a
	// multi-cell plan. Results are byte-identical for any value — the
	// partition defines the semantics — so Workers (default 0 =
	// GOMAXPROCS) only changes wall-clock time. The one-cell plan runs on
	// the calling goroutine and ignores it.
	Workers int
}

// Cluster is a fully wired simulation instance: hosts grouped into cells,
// each cell owning a kernel, a fabric, its hosts' protocol stacks (NIC,
// VMMC endpoint, mapper, remap manager), a metrics registry and a
// delivery log. The plan decides the per-cell choices:
//
//	                 one cell (default)        several cells
//	fabric           wormhole Fabric           contention-free Pipe
//	kernel seed      Config.Seed               parsim.ShardSeed(Seed, i)
//	topology         Config.Net itself         one clone per cell
//	tracing          Config.Tracer, live       per-cell ring (TraceEvents)
//	driven by        the kernel, no barrier    parsim epoch barriers
//
// Every method works on every plan. K and Fab are the lone cell's kernel
// and fabric on the one-cell plan and nil otherwise; accessors with
// nothing to report on a plan return the zero value their doc names.
type Cluster struct {
	K     *sim.Kernel
	Net   *topology.Network
	Fab   *fabric.Fabric
	Hosts []topology.NodeID
	Dir   *vmmc.Directory

	// Lookahead is the conservative epoch window of a multi-cell plan:
	// the minimum cross-cell fabric traversal time. Zero on one cell.
	Lookahead time.Duration

	cfg    Config
	cells  []*cell
	stacks map[topology.NodeID]*stack
	run    runner
	eng    *parsim.Engine // nil on the one-cell plan

	tracer trace.Tracer

	// Engine-profiling state (nil/zero when Config.Profile is off).
	prof      *enginestat.EngineProf // parallel engine's recording area
	profiled  bool
	poolBase  enginestat.PoolStat // pool counters at construction time
	telemetry *enginestat.Server

	// mu serializes remap-manager updates of the three counters below
	// across cells.
	mu sync.Mutex
	// Remaps counts completed on-demand remap operations.
	Remaps int
	// Unreachables counts remaps that ended in an unreachable verdict.
	Unreachables int
	// RemapStats counts remap-manager pacing activity (coalesced upcalls,
	// deferred retries, quarantines).
	RemapStats RemapStats
}

// stack is one host's protocol stack, run by the cell that owns it.
type stack struct {
	cell   *cell
	nic    *nic.NIC
	ep     *vmmc.Endpoint
	mapper *mapping.Mapper // nil when mapping is off
	remap  *remapManager   // nil when mapping is off
}

// runner advances the cells: the lone cell's kernel, or the parallel
// engine over several.
type runner interface {
	RunFor(time.Duration)
	Now() sim.Time
}

// New builds a cluster on the plan cfg selects: one cell by default, or
// several under the conservative parallel engine when cfg.Engine is
// EngineSharded or cfg.Plan is non-zero. All routes between host pairs
// are pre-installed (shortest paths), as a freshly mapped system would
// have them. New panics on a configuration no plan can run.
func New(cfg Config) *Cluster {
	cfg, groups := cfg.resolve()
	c := &Cluster{
		Net:    cfg.Net,
		Hosts:  cfg.Hosts,
		Dir:    vmmc.NewDirectory(),
		cfg:    cfg,
		stacks: make(map[topology.NodeID]*stack, len(cfg.Hosts)),
		tracer: cfg.Tracer,
	}
	for i, g := range groups {
		c.cells = append(c.cells, c.newCell(i, g, len(groups) > 1))
	}
	minHops := c.installRoutes()
	if cfg.Mapper {
		pol := cfg.Remap.Defaults()
		for _, h := range cfg.Hosts {
			s := c.stacks[h]
			s.mapper = mapping.New(s.cell.k, s.nic, cfg.MapperCfg)
			s.remap = newRemapManager(c, s, pol, cfg.Seed*9176+int64(h)*104729+31)
			s.nic.SetOnPathStale(s.remap.trigger)
			s.nic.SetOnNoRoute(s.remap.trigger)
			if cfg.Liveness != nil {
				s.nic.SetOnSessionDown(s.remap.trigger)
			}
		}
	}
	if len(c.cells) == 1 {
		cl := c.cells[0]
		c.K, c.Fab, c.run = cl.k, cl.fab.(*fabric.Fabric), cl.k
		if cfg.Metrics.SampleEvery > 0 {
			cl.obs.StartSampling(cl.k, cfg.Metrics.SampleEvery)
		}
	} else {
		c.Lookahead = cfg.Fabric.MinCrossLatency(minHops)
		c.connectCells()
		c.run = c.eng
	}
	if cfg.Profile {
		c.enableProfiling()
	}
	if cfg.Telemetry != "" {
		c.startTelemetry(cfg.Telemetry)
	}
	return c
}

// resolve fills the defaults, rejects configurations no plan can run,
// and returns the host groups of the plan: one group for the one-cell
// plan, two or more otherwise.
func (cfg Config) resolve() (Config, [][]topology.NodeID) {
	if cfg.Net == nil {
		n := cfg.NumHosts
		if n == 0 {
			n = 2
		}
		cfg.Net, cfg.Hosts = topology.Star(n)
	}
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = cfg.Net.Hosts()
	}
	if cfg.Fabric == (fabric.Config{}) {
		cfg.Fabric = fabric.DefaultConfig()
	}
	if cfg.Liveness != nil {
		if !cfg.FT {
			panic("core: liveness sessions require the retransmission protocol")
		}
		// Fold the cluster seed into the session-jitter base so different
		// cluster seeds give independent control-packet phasing (each NIC
		// then derives per-session streams from this base). The base
		// never depends on the cell, so results stay byte-identical
		// across worker counts.
		lc := *cfg.Liveness
		lc.Seed = lc.Seed*1000003 + cfg.Seed
		cfg.Liveness = &lc
	}
	if cfg.Mapper && !cfg.FT {
		panic("core: on-demand mapping requires the retransmission protocol")
	}
	if cfg.Engine == EngineSequential && cfg.Plan.zero() {
		return cfg, [][]topology.NodeID{cfg.Hosts}
	}
	cfg.Engine = EngineSharded
	if len(cfg.Hosts) < 2 {
		panic("core: a multi-cell plan needs at least two hosts")
	}
	groups := planGroups(cfg.Plan, cfg.Hosts)
	if len(groups) < 2 {
		panic("core: shard plan must create at least two cells")
	}
	if cfg.Metrics.SampleEvery > 0 {
		panic("core: Metrics.SampleEvery needs the one-cell plan; on several cells, sample MergedObserver() between RunFor calls")
	}
	return cfg, groups
}

// installRoutes pre-installs shortest routes from every host to every
// other host, sources and destinations both in Config.Hosts order: with
// liveness on, each SetRoute starts a session whose first transmission is
// scheduled on the cell kernel, so the order is part of the event
// sequence. One BFS per source host keeps thousand-host construction
// O(H·E) (ShortestFrom matches per-pair Shortest byte for byte). It
// returns the fewest switches on any route between hosts of different
// cells — the hop floor of the lookahead — or 0 on one cell.
func (c *Cluster) installRoutes() int {
	best := 0
	for _, a := range c.Hosts {
		sa := c.stacks[a]
		routes := routing.ShortestFrom(c.Net, a)
		for _, b := range c.Hosts {
			r, ok := routes[b]
			if a == b || !ok {
				continue
			}
			sa.nic.SetRoute(b, r)
			if c.stacks[b].cell != sa.cell && (best == 0 || len(r) < best) {
				best = len(r)
			}
		}
	}
	return best
}

// Observer returns the cluster's observability handle: its registry is
// where every subsystem (NIC, fabric, retransmission protocol, mapper,
// remap manager) records, and its exporters render the collected
// telemetry. On the one-cell plan it is the live observer. On several
// cells, where each cell records into its own registry, it is
// MergedObserver: a snapshot taken at the call, not written by the run.
func (c *Cluster) Observer() *metrics.Observer {
	if len(c.cells) == 1 {
		return c.cells[0].obs
	}
	return c.MergedObserver()
}

// Metrics returns the cluster-wide metrics registry (shorthand for
// Observer().Registry()).
func (c *Cluster) Metrics() *metrics.Registry { return c.Observer().Registry() }

// InstallTracer wires tr into every layer of an already-built cluster —
// each NIC and each fabric — and remembers it for Tracer()/FlightRecorder().
// Chaos campaigns use this to attach a tracer between cluster construction
// and traffic start; nil removes the current tracer everywhere. On the
// one-cell plan tr sees events as they happen. On several cells the
// layers keep tracing into their cell rings, and every RunFor and Stop
// hands tr the events recorded since in merged timeline order (the order
// TraceEvents uses), so the stream is identical for every worker count.
func (c *Cluster) InstallTracer(tr trace.Tracer) {
	c.tracer = tr
	for _, cl := range c.cells {
		cl.setTracer(tr)
	}
}

// Tracer returns the cluster-wide tracer (nil if tracing is off).
func (c *Cluster) Tracer() trace.Tracer { return c.tracer }

// FlightRecorder returns the cluster tracer as a flight recorder, or nil
// if the tracer is absent or of another kind.
func (c *Cluster) FlightRecorder() *trace.FlightRecorder {
	fr, _ := c.tracer.(*trace.FlightRecorder)
	return fr
}

// NIC returns the NIC of host h (nil for a node outside the host list).
func (c *Cluster) NIC(h topology.NodeID) *nic.NIC {
	if s := c.stacks[h]; s != nil {
		return s.nic
	}
	return nil
}

// Endpoint returns the VMMC endpoint of host h (nil for a node outside
// the host list). On a multi-cell plan, export buffers before the run:
// an Import reads the exporter's directory entry from the importer's cell.
func (c *Cluster) Endpoint(h topology.NodeID) *vmmc.Endpoint {
	if s := c.stacks[h]; s != nil {
		return s.ep
	}
	return nil
}

// Mapper returns the on-demand mapper of host h (nil if mapping disabled).
func (c *Cluster) Mapper(h topology.NodeID) *mapping.Mapper {
	if s := c.stacks[h]; s != nil {
		return s.mapper
	}
	return nil
}

// Quarantined reports whether host src currently holds dst in quarantine
// (repeated remap failures; cleared by the next successful remap).
func (c *Cluster) Quarantined(src, dst topology.NodeID) bool {
	s := c.stacks[src]
	return s != nil && s.remap != nil && s.remap.quarantinedNow(dst)
}

// RemapInFlight returns, across all hosts, how many destinations have a
// mapping run currently active and how many hold an armed retry timer.
// At quiesce both should be zero (a run still active there means a remap
// wedged without completing).
func (c *Cluster) RemapInFlight() (running, armed int) {
	for _, s := range c.stacks {
		if s.remap != nil {
			r, a := s.remap.busy()
			running += r
			armed += a
		}
	}
	return
}

// SuspendRemap freezes host h's failure recovery: stale-path / no-route /
// session-down triggers are held instead of starting mapping runs, so h
// keeps routing on its pre-failure map. Stale-map divergence scenarios use
// this to open a blind window; ResumeRemap replays the held triggers.
// Requires Config.Mapper. Call it from host h's cell (process context or
// a kernel event there) or while the cluster is quiescent.
func (c *Cluster) SuspendRemap(h topology.NodeID) { c.remapOf("SuspendRemap", h).suspend() }

// ResumeRemap re-enables host h's failure recovery and replays every
// trigger held while suspended, in destination order.
func (c *Cluster) ResumeRemap(h topology.NodeID) { c.remapOf("ResumeRemap", h).resume() }

func (c *Cluster) remapOf(method string, h topology.NodeID) *remapManager {
	s := c.stacks[h]
	if s == nil || s.remap == nil {
		panic("core: " + method + " on a cluster without Config.Mapper")
	}
	return s.remap
}

// SetLinkLoss makes topology link id gray: packets crossing it drop with
// probability rate from a deterministic per-(seed, link) stream. On
// several cells every cell's fabric gets the same stream parameters and
// samples only the packets it carries. rate 0 clears the loss.
func (c *Cluster) SetLinkLoss(link int, rate float64) {
	for _, cl := range c.cells {
		cl.fab.SetLinkLoss(link, rate, c.cfg.Seed)
	}
}

// Host returns the i-th host's node ID.
func (c *Cluster) Host(i int) topology.NodeID { return c.Hosts[i] }

// EndpointAt returns the i-th host's endpoint.
func (c *Cluster) EndpointAt(i int) *vmmc.Endpoint { return c.Endpoint(c.Hosts[i]) }

// NICAt returns the i-th host's NIC.
func (c *Cluster) NICAt(i int) *nic.NIC { return c.NIC(c.Hosts[i]) }

// RunFor advances the whole simulation by d. Use for bounded
// experiments.
func (c *Cluster) RunFor(d time.Duration) {
	c.run.RunFor(d)
	c.boundary()
}

// boundary runs at every RunFor/Stop return, with the cells quiescent:
// it hands a multi-cell plan's queued trace events and OnUnreachable
// upcalls over, and publishes live telemetry.
func (c *Cluster) boundary() {
	c.forwardTrace()
	c.deliverUpcalls()
	c.publishTelemetry()
}

// Stop terminates the simulation and all its processes, and shuts the
// parallel engine's worker pool down. The cluster can still be inspected
// (Deliveries, DumpObservables, ...) but not resumed.
func (c *Cluster) Stop() {
	for _, cl := range c.cells {
		cl.k.Stop()
	}
	if c.eng != nil {
		c.eng.Shutdown()
	}
	// The final publish lets a live scrape read the end state; the
	// telemetry server stays up until its owner closes it.
	c.boundary()
}

// StopSoon ends the run at the current instant; safe to call from
// process context (the stop executes once control returns to the kernel).
// Benchmarks call it when their workload completes so the run does not
// idle through periodic timer events until its time bound. On several
// cells the run ends at the close of the current epoch window, a point
// that depends only on simulated state.
func (c *Cluster) StopSoon() {
	if c.eng != nil {
		c.eng.Halt()
		return
	}
	c.K.Immediately(func() { c.K.Stop() })
}

// Now returns the current simulated time: the kernel clock, or the time
// frontier every cell has reached.
func (c *Cluster) Now() sim.Time { return c.run.Now() }
