package chaos

import (
	"fmt"
	"strings"
	"time"

	"sanft/internal/core"
	"sanft/internal/liveness"
	"sanft/internal/mapping"
	"sanft/internal/metrics"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// Variant selects the protocol configuration a campaign runs under, so
// the same fault schedule can be measured against the paper's fixed-timer
// baseline and against the adaptive-liveness stack.
type Variant struct {
	// Name labels report rows ("baseline", "liveness").
	Name string
	// Liveness, when non-nil, runs BFD-style per-path sessions feeding
	// the remap/quarantine recovery path.
	Liveness *liveness.Config
	// Adaptive switches the retransmission timeout from the fixed
	// interval to the RTT-driven Jacobson/Karn estimator.
	Adaptive bool
}

// Baseline is the paper's configuration: fixed retransmission interval,
// fixed permanent-failure threshold, no liveness sessions.
func Baseline() Variant { return Variant{Name: "baseline"} }

// AdaptiveLiveness enables per-path liveness sessions (RFC 5880-style
// defaults: 1ms interval, detect multiplier 3) plus the RTT-adaptive
// retransmission timeout.
func AdaptiveLiveness() Variant {
	return Variant{Name: "liveness", Liveness: &liveness.Config{}, Adaptive: true}
}

// apply overlays the variant onto a cluster configuration.
func (v Variant) apply(cfg *core.Config) {
	cfg.Liveness = v.Liveness
	cfg.Retrans.Adaptive = v.Adaptive
}

// maxAttempts scales a campaign's remap-attempt bound: liveness detects
// failures roughly 3× earlier than the fixed threshold, so the same fault
// schedule legitimately drives more remap attempts.
func (v Variant) maxAttempts(base int) int {
	if base > 0 && v.Liveness != nil {
		return base * 2
	}
	return base
}

// Report is the outcome of one campaign run — the degradation report the
// sanchaos command prints.
type Report struct {
	Campaign string
	Variant  string
	Seed     int64

	Faults   int
	Events   int
	EventLog string

	Pairs      int
	Expected   int
	Delivered  int
	Duplicates int

	Remaps       int
	Unreachables int
	RemapStats   core.RemapStats

	// MTTR summarizes delivery stalls (see Engine.MTTR); MTTRp50, MTTRp99,
	// and MTTRp999 are the stall quantiles (zero when no stalls were
	// observed) — the numbers the baseline-vs-liveness comparison ranks by.
	MTTR     string
	MTTRp50  time.Duration
	MTTRp99  time.Duration
	MTTRp999 time.Duration

	Violations []Violation

	// FlightDump is the flight recorder's post-mortem rendering, filled
	// only when invariants were violated and a recorder was attached
	// (RunInstrumented with core.Cluster.InstallTracer).
	FlightDump string `json:",omitempty"`
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %s\n", r.Title(), verdict)
	fmt.Fprintf(&b, "  faults injected:  %d (%d log events)\n", r.Faults, r.Events)
	fmt.Fprintf(&b, "  flows:            %d pairs, %d messages expected\n", r.Pairs, r.Expected)
	fmt.Fprintf(&b, "  delivered:        %d distinct, %d duplicate notifications\n",
		r.Delivered, r.Duplicates)
	fmt.Fprintf(&b, "  remaps:           %d ok, %d unreachable verdicts\n",
		r.Remaps, r.Unreachables)
	fmt.Fprintf(&b, "  remap pacing:     attempts %d, coalesced %d, deferred %d, quarantines %d\n",
		r.RemapStats.Attempts, r.RemapStats.Coalesced,
		r.RemapStats.Deferred, r.RemapStats.Quarantines)
	fmt.Fprintf(&b, "  delivery stalls:  %s\n", r.MTTR)
	if r.Passed() {
		fmt.Fprintf(&b, "  invariants:       all hold\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  VIOLATION:        %s\n", v)
		}
	}
	return b.String()
}

// Campaign is a chaos experiment held as data: the cluster it builds for
// a seed, the traffic and faults it starts, how long it runs, and the
// contract its run is audited against. Campaign.run is the one runner:
// the built-in campaigns, the scale tier (RunScale), the sanload grid and
// the proptest scenarios all build a Campaign and run it.
type Campaign struct {
	Name  string
	About string
	// Variant overlays its protocol configuration onto Config, scales
	// Check's remap bound, and labels the report. The zero Variant runs
	// the paper's protocol, unlabelled.
	Variant Variant
	// Config returns the cluster configuration for a seed.
	Config func(seed int64) core.Config
	// Start starts the traffic and installs the faults on the freshly
	// built engine, and returns the run the oracle audits.
	Start func(e *Engine) *Run
	// Span is the simulated time the campaign runs before it stops.
	Span time.Duration
	// Check is the invariant contract (see CheckInvariants).
	Check CheckOpts
	// Checks, when set, adds campaign-specific findings to the audit.
	Checks func(e *Engine) []Violation
}

// Run executes the campaign with the given seed.
func (c Campaign) Run(seed int64) *Report { return c.run(seed, nil, nil) }

// RunInstrumented executes the campaign, invoking pre on the freshly built
// cluster before traffic starts. cmd/sanstat uses it to start periodic
// metric sampling and capture the cluster's Observer.
func (c Campaign) RunInstrumented(seed int64, pre func(*core.Cluster)) *Report {
	return c.run(seed, pre, nil)
}

// RunWithTraffic executes the campaign with an injected traffic source in
// place of the built-in synthetic workload: same topology, fault
// schedule, invariant oracle, and report — only the traffic differs. pre
// may be nil; inj receives the campaign's default workload so it can
// reuse the pair set the fault schedule targets.
func (c Campaign) RunWithTraffic(seed int64, pre func(*core.Cluster), inj TrafficInjector) *Report {
	return c.run(seed, pre, inj)
}

// run builds the cluster under the variant, hands it to pre, starts the
// campaign on a fresh engine (with inj, when set, replacing the default
// traffic), runs it for Span, stops it, audits it, and assembles the
// report. Any violation freezes a flight-recorder snapshot (when one is
// attached) and embeds the recorder's dump in the report, so a failing
// campaign ships its own post-mortem.
func (c Campaign) run(seed int64, pre func(*core.Cluster), inj TrafficInjector) *Report {
	cfg := c.Config(seed)
	c.Variant.apply(&cfg)
	cl := core.New(cfg)
	if pre != nil {
		pre(cl)
	}
	e := NewEngine(cl, seed)
	e.inject = inj
	r := c.Start(e)
	cl.RunFor(c.Span)
	cl.Stop()
	e.Record("campaign %s complete", c.Name)
	if r.fromLog {
		for _, d := range cl.Deliveries() {
			e.noteAt(r, Pair{d.Src, d.Dst}, d.Msg, d.At)
		}
	}

	opts := c.Check
	opts.MaxRemapAttempts = c.Variant.maxAttempts(opts.MaxRemapAttempts)
	violations := CheckInvariants(e, r, opts)
	if c.Checks != nil {
		violations = append(violations, c.Checks(e)...)
	}
	var dump string
	if len(violations) > 0 && e.fr != nil {
		for _, vio := range violations {
			e.fr.TriggerSnapshot("invariant:"+vio.Invariant, cl.Now())
		}
		dump = e.fr.Dump()
	}
	var p50, p99, p999 time.Duration
	if e.mttr.Count() > 0 {
		p50, p99, p999 = e.mttr.Quantile(0.5), e.mttr.Quantile(0.99), e.mttr.Quantile(0.999)
	}
	return &Report{
		Campaign:     c.Name,
		Variant:      c.Variant.Name,
		Seed:         seed,
		MTTRp50:      p50,
		MTTRp99:      p99,
		MTTRp999:     p999,
		Faults:       e.Faults(),
		Events:       e.Events(),
		EventLog:     e.LogText(),
		Pairs:        r.NumPairs(),
		Expected:     r.Expected(),
		Delivered:    r.Delivered(),
		Duplicates:   r.Duplicates(),
		Remaps:       cl.Remaps,
		Unreachables: cl.Unreachables,
		RemapStats:   cl.RemapStats,
		MTTR:         e.MTTRSummary(),
		Violations:   violations,
		FlightDump:   dump,
	}
}

// Retrans is the retransmission protocol campaigns run: a 16-packet queue
// and a 1ms timer, with the permanent-failure verdict after permFail.
func Retrans(permFail time.Duration) retrans.Config {
	return retrans.Config{QueueSize: 16, Interval: time.Millisecond, PermFailThreshold: permFail}
}

// mappedConfig is the cluster most campaigns build: fault tolerance and
// the on-demand mapper on, permanent failures declared after 8ms.
func mappedConfig(nw *topology.Network, hosts []topology.NodeID, seed int64) core.Config {
	return core.Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: Retrans(8 * time.Millisecond),
		Mapper:  true,
		Seed:    seed,
	}
}

// chainConfig builds the redundant 3-switch chain (two trunks between
// adjacent switches, two hosts per switch) used by several campaigns; its
// hosts are listed switch by switch.
func chainConfig(seed int64) core.Config {
	nw, rows := topology.Chain(3, 2, 2)
	var hosts []topology.NodeID
	for _, row := range rows {
		hosts = append(hosts, row...)
	}
	return mappedConfig(nw, hosts, seed)
}

// staleBlind is the stale-map campaign's blind window.
const staleBlind = 150 * time.Millisecond

// Campaigns returns the built-in campaign suite under the paper's
// baseline configuration.
func Campaigns() []Campaign { return CampaignsWith(Baseline()) }

// CampaignsWith returns the built-in campaign suite with every cluster
// configured for the given variant — the same topologies, workloads, and
// fault schedules, so baseline-vs-liveness reports differ only in the
// protocol stack under test.
func CampaignsWith(v Variant) []Campaign {
	return []Campaign{
		{
			Name:    "link-flap",
			About:   "random trunk flaps on a redundant chain; strict delivery",
			Variant: v,
			Config:  chainConfig,
			Start: func(e *Engine) *Run {
				// Pace the traffic across the whole flap window (~60ms); the
				// 3ms gap keeps the stall floor below remap-length stalls.
				r := e.StartTraffic(Workload{Pairs: AllPairs(e.C.Hosts), Msgs: 20, Gap: 3 * time.Millisecond})
				e.Install(LinkFlap{Start: time.Millisecond, Cycles: 10})
				return r
			},
			Span:  20 * time.Second,
			Check: CheckOpts{MaxRemapAttempts: 60},
		},
		{
			Name:    "switch-storm",
			About:   "correlated double switch outage on the Figure-2 tree; loss allowed",
			Variant: v,
			Config: func(seed int64) core.Config {
				f := topology.NewFig2()
				return mappedConfig(f.Net, append([]topology.NodeID{f.Mapper}, f.Targets[:3]...), seed)
			},
			Start: func(e *Engine) *Run {
				// Traffic outlasts both outages (~700ms of storm), so
				// surviving flows show their recovery stalls.
				r := e.StartTraffic(Workload{Pairs: AllPairs(e.C.Hosts), Msgs: 20, Gap: 40 * time.Millisecond})
				e.Install(SwitchOutage{
					Switches: e.C.Net.Switches()[1:3], // the tree's S1 and S2
					Start:    2 * time.Millisecond,
					Down:     200 * time.Millisecond,
					Repeat:   2,
				})
				return r
			},
			Span:  20 * time.Second,
			Check: CheckOpts{AllowLoss: true},
		},
		{
			Name:    "partition-heal",
			About:   "sever and heal the full cut between two halves of the chain",
			Variant: v,
			Config:  chainConfig,
			Start: func(e *Engine) *Run {
				sws := e.C.Net.Switches()
				// Demand persists through the 300ms cut, so cross-partition
				// sources keep triggering remaps until quarantine.
				r := e.StartTraffic(Workload{Pairs: AllPairs(e.C.Hosts), Msgs: 30, Gap: 20 * time.Millisecond})
				e.Install(Partition{
					A:     sws[:2],
					B:     sws[2:],
					Start: 2 * time.Millisecond,
					Heal:  300 * time.Millisecond,
				})
				return r
			},
			Span:  20 * time.Second,
			Check: CheckOpts{AllowLoss: true},
			// A 300ms full cut with ongoing demand must drive at least one
			// destination into quarantine — that is the graceful
			// degradation this campaign exists to demonstrate.
			Checks: func(e *Engine) []Violation {
				if e.C.RemapStats.Quarantines == 0 {
					return []Violation{{"quarantine", "partition never quarantined any destination"}}
				}
				return nil
			},
		},
		{
			Name:    "drop-ramp",
			About:   "send-side error rate ramped to 30% and back; strict delivery",
			Variant: v,
			Config: func(seed int64) core.Config {
				nw, hosts := topology.Star(6)
				return core.Config{
					Net: nw, Hosts: hosts, FT: true,
					Retrans: Retrans(time.Second),
					Seed:    seed,
				}
			},
			Start: func(e *Engine) *Run {
				// Traffic spans the whole ramp (~100ms).
				r := e.StartTraffic(Workload{Pairs: AllPairs(e.C.Hosts), Msgs: 12, Gap: 10 * time.Millisecond})
				e.Install(DropRamp{
					Rates: []float64{0.02, 0.1, 0.3, 0},
					Start: time.Millisecond,
					Step:  25 * time.Millisecond,
				})
				return r
			},
			Span: 10 * time.Second,
		},
		{
			Name:    "composite",
			About:   "trunk flapping while the error rate ramps; strict delivery",
			Variant: v,
			Config:  chainConfig,
			Start: func(e *Engine) *Run {
				r := e.StartTraffic(Workload{Pairs: AllPairs(e.C.Hosts), Msgs: 20, Gap: 3 * time.Millisecond})
				e.Install(Composite{Parts: []Scenario{
					LinkFlap{Start: time.Millisecond, Cycles: 8},
					DropRamp{Rates: []float64{0.05, 0}, Start: time.Millisecond, Step: 30 * time.Millisecond},
				}})
				return r
			},
			Span:  20 * time.Second,
			Check: CheckOpts{MaxRemapAttempts: 60},
		},
		{
			Name:    "flap-storm",
			About:   "correlated seeded flap burst across a fat-tree's trunk classes; strict delivery",
			Variant: v,
			Config: func(seed int64) core.Config {
				// A real Clos fabric, mapped on demand: the hostless
				// aggregation/core tiers exercise the echo-identity dedup
				// path no paper-scale topology reaches.
				ft := topology.FatTree(4)
				// One host per pod keeps the all-pairs workload light while
				// every flow still crosses the storm-swept core.
				cfg := mappedConfig(ft.Net, []topology.NodeID{
					ft.PodHosts[0][0], ft.PodHosts[1][0],
					ft.PodHosts[2][0], ft.PodHosts[3][0],
				}, seed)
				// Fat-tree switches are radix k; scanning to the default
				// MaxRadix would burn 12 probe timeouts per switch on ports
				// that cannot exist.
				cfg.MapperCfg = mapping.Config{MaxRadix: 4}
				return cfg
			},
			Start: func(e *Engine) *Run {
				r := e.StartTraffic(Workload{Pairs: AllPairs(e.C.Hosts), Msgs: 15, Gap: 4 * time.Millisecond})
				e.Install(FlapStorm{Start: time.Millisecond, Events: 24, Window: 30 * time.Millisecond})
				return r
			},
			Span:  30 * time.Second,
			Check: CheckOpts{MaxRemapAttempts: 200},
		},
		{
			Name:    "stale-map",
			About:   "blind host routes on a pre-failure map through a kill, then converges on resume",
			Variant: v,
			Config:  chainConfig,
			Start: func(e *Engine) *Run {
				blind, far := e.C.Hosts[0], e.C.Hosts[4]
				r := e.StartTraffic(Workload{Pairs: []Pair{{blind, far}, {far, blind}}, Msgs: 30,
					Gap: 5 * time.Millisecond})
				// Kill a trunk the blind host's installed route crosses (the
				// redundant spare survives, so remap has somewhere to go);
				// the blind window opens just before the kill.
				used := RouteTrunks(e.C.Net, blind, far)
				e.Install(Composite{Label: "stale-map", Parts: []Scenario{
					StaleMap{Hosts: []topology.NodeID{blind}, Start: time.Millisecond, Blind: staleBlind},
					LinkKill{Links: used[:1], Start: 2 * time.Millisecond},
				}})
				return r
			},
			Span:  20 * time.Second,
			Check: CheckOpts{MaxRemapAttempts: 40},
			// Divergence must actually have happened: the blind host's
			// failure triggers were held during the window, its traffic
			// stalled for roughly the window, and convergence took a
			// completed remap. The strict delivery invariant is the
			// convergence oracle itself.
			Checks: func(e *Engine) []Violation {
				var out []Violation
				if held := e.C.Metrics().CounterTotal("remap.held"); held == 0 {
					out = append(out, Violation{
						"stale-divergence", "no remap trigger was held during the blind window"})
				}
				if e.C.Remaps == 0 {
					out = append(out, Violation{
						"stale-convergence", "no remap completed after the blind window"})
				}
				if max := e.MTTR().Max(); max < staleBlind/2 {
					out = append(out, Violation{
						"stale-divergence",
						fmt.Sprintf("longest delivery stall %v < half the %v blind window", max, staleBlind)})
				}
				return out
			},
		},
		{
			Name:    "gray-links",
			About:   "a lossy-but-up trunk at 30% drop on the live route; strict delivery",
			Variant: v,
			Config:  chainConfig,
			Start: func(e *Engine) *Run {
				hosts := e.C.Hosts
				r := e.StartTraffic(Workload{Pairs: AllPairs(hosts), Msgs: 20, Gap: 3 * time.Millisecond})
				// Gray out a trunk the installed routes actually cross, for
				// most of the traffic window; retransmission must absorb the
				// loss and strict delivery must still hold.
				used := RouteTrunks(e.C.Net, hosts[0], hosts[4])
				e.Install(GrayLinks{
					Links: used[:1], Rate: 0.3,
					Start: time.Millisecond, Dur: 120 * time.Millisecond,
				})
				return r
			},
			Span:  20 * time.Second,
			Check: CheckOpts{MaxRemapAttempts: 60},
			Checks: func(e *Engine) []Violation {
				if e.C.Metrics().Counter("fabric.pkts_dropped", metrics.L("reason", "gray")).Value() == 0 {
					return []Violation{{"gray-loss", "gray link never dropped a packet"}}
				}
				return nil
			},
		},
		{
			Name:    "link-kill",
			About:   "one trunk dies permanently; the stall isolates detection+remap (MTTR)",
			Variant: v,
			Config:  chainConfig,
			Start: func(e *Engine) *Run {
				hosts := e.C.Hosts
				// One host per switch keeps the post-kill retransmission
				// storm light enough that mapping probes survive — the
				// stall then isolates detection+remap, not congestion.
				// 1ms pacing keeps the stall floor (2×gap) below both
				// detection latencies under comparison: the liveness
				// detection time (~3ms) and the fixed permanent-failure
				// threshold (8ms). Traffic outlasts detection plus remap.
				sparse := []topology.NodeID{hosts[0], hosts[2], hosts[4]}
				r := e.StartTraffic(Workload{Pairs: AllPairs(sparse), Msgs: 25, Gap: time.Millisecond})
				// Kill a trunk the installed end-to-end route actually uses
				// (not the redundant spare), so every seed's kill stalls
				// traffic and forces a detection+remap cycle.
				used := RouteTrunks(e.C.Net, sparse[0], sparse[2])
				e.Install(LinkKill{
					Links: []*topology.Link{used[e.Rand().Intn(len(used))]},
					Start: 2 * time.Millisecond,
				})
				return r
			},
			Span:  5 * time.Second,
			Check: CheckOpts{MaxRemapAttempts: 40},
		},
	}
}

// Find returns the baseline campaign with the given name.
func Find(name string) (Campaign, bool) { return FindWith(name, Baseline()) }

// FindWith returns the campaign with the given name under a variant.
func FindWith(name string, v Variant) (Campaign, bool) {
	for _, c := range CampaignsWith(v) {
		if c.Name == name {
			return c, true
		}
	}
	return Campaign{}, false
}
