package workload

import (
	"fmt"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/mapping"
	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/topology"
)

// Inject adapts a workload spec into a chaos.TrafficInjector, so any
// existing campaign — its topology, fault schedule, and invariant
// oracle — can be driven by production-shaped traffic instead of the
// synthetic default. The hosts come from the default workload's pairs
// (in first-appearance order, so the choice is deterministic), split
// into a server prefix and a client remainder. When out is non-nil it
// receives the driver, for SLO extraction after the run.
func Inject(spec Spec, out **Driver) chaos.TrafficInjector {
	return func(e *chaos.Engine, dflt chaos.Workload) *chaos.Run {
		hosts := pairHosts(dflt)
		if len(hosts) < 2 {
			hosts = e.C.Hosts
		}
		if len(hosts) < 2 {
			panic("workload: Inject needs at least two hosts")
		}
		nSrv := serverSplit(spec, len(hosts))
		d := Attach(e, spec, hosts[nSrv:], hosts[:nSrv])
		if out != nil {
			*out = d
		}
		return d.Run()
	}
}

// pairHosts lists the distinct hosts a workload's pairs touch, in first
// appearance order.
func pairHosts(w chaos.Workload) []topology.NodeID {
	seen := make(map[topology.NodeID]bool)
	var out []topology.NodeID
	for _, pr := range w.Pairs {
		for _, h := range [2]topology.NodeID{pr.Src, pr.Dst} {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	return out
}

// serverSplit picks how many of n hosts serve: about a third, at least
// one, and at least two for KV (when possible) so puts actually
// replicate.
func serverSplit(spec Spec, n int) int {
	nSrv := n / 3
	if nSrv < 1 {
		nSrv = 1
	}
	if spec.Proto == ProtoKV && nSrv < 2 && n >= 3 {
		nSrv = 2
	}
	return nSrv
}

// FaultNames are the fault scenarios the grid knows how to install.
var FaultNames = []string{"none", "linkflap", "gray", "drop"}

// InstallFault schedules one named fault against the engine's cluster.
// Route-targeted faults hit a trunk on the a→b path so the fault lands
// on live traffic rather than a redundant spare.
func InstallFault(e *chaos.Engine, fault string, a, b topology.NodeID) error {
	const start = 2 * time.Millisecond
	routeLinks := func() []*topology.Link {
		links := chaos.RouteTrunks(e.C.Net, a, b)
		if len(links) == 0 {
			links = chaos.TrunkLinks(e.C.Net)
		}
		return links
	}
	switch fault {
	case "", "none":
	case "linkflap":
		links := routeLinks()
		if len(links) == 0 {
			return fmt.Errorf("workload: no trunk links to flap")
		}
		e.Install(chaos.LinkFlap{Link: links[0], Start: start,
			Down: 3 * time.Millisecond, Up: 3 * time.Millisecond, Cycles: 6})
	case "gray":
		links := routeLinks()
		if len(links) == 0 {
			return fmt.Errorf("workload: no trunk links to gray")
		}
		e.Install(chaos.GrayLinks{Links: links[:1], Rate: 0.15, Start: start,
			Dur: 60 * time.Millisecond})
	case "drop":
		e.Install(chaos.DropRamp{Rates: []float64{0.05, 0}, Start: start,
			Step: 30 * time.Millisecond})
	default:
		return fmt.Errorf("workload: unknown fault %q (want one of %v)", fault, FaultNames)
	}
	return nil
}

// GridOpts is one sanload campaign: the cross product of topologies,
// workload specs, and fault scenarios, each cell run Reps times with
// derived seeds and merged.
type GridOpts struct {
	Topos  []string // topology specs (topology.ParseSpec syntax)
	Specs  []Spec   // workload cells (proto × mode, pre-built)
	Faults []string // entries of FaultNames

	Seed int64
	// Reps is the replica count per cell (default 1). Replica results
	// merge in index order, so any pool worker count yields the same
	// tables.
	Reps int
	// Dur is the simulated span per replica (default 500ms).
	Dur time.Duration
	// Hosts is how many hosts each replica drives, strided across the
	// topology's host list (default 9).
	Hosts int

	Pool parsim.Pool
}

// GridResult is a finished grid: one merged SLOResult per cell, in
// topo-major, then spec, then fault order, plus every invariant
// violation any replica produced.
type GridResult struct {
	Results    []report.SLOResult
	Violations []string
}

type gridCell struct {
	topo  string
	spec  Spec
	fault string
}

type replicaOut struct {
	res  report.SLOResult
	vios []string
}

// RunGrid runs the campaign through the parsim pool. Inputs are
// validated up front so a bad spec fails fast instead of panicking a
// worker.
func RunGrid(o GridOpts) (GridResult, error) {
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.Dur <= 0 {
		o.Dur = 500 * time.Millisecond
	}
	if o.Hosts <= 0 {
		o.Hosts = 9
	}
	if len(o.Topos) == 0 || len(o.Specs) == 0 {
		return GridResult{}, fmt.Errorf("workload: grid needs at least one topology and one spec")
	}
	if len(o.Faults) == 0 {
		o.Faults = []string{"none"}
	}
	for _, t := range o.Topos {
		if _, err := topology.ParseSpec(t); err != nil {
			return GridResult{}, err
		}
	}
	for _, f := range o.Faults {
		ok := false
		for _, known := range FaultNames {
			if f == known {
				ok = true
			}
		}
		if !ok {
			return GridResult{}, fmt.Errorf("workload: unknown fault %q (want one of %v)", f, FaultNames)
		}
	}

	var cells []gridCell
	for _, t := range o.Topos {
		for _, s := range o.Specs {
			for _, f := range o.Faults {
				cells = append(cells, gridCell{topo: t, spec: s, fault: f})
			}
		}
	}
	jobs := len(cells) * o.Reps
	outs := parsim.Map(o.Pool, jobs, func(i int) replicaOut {
		cell := cells[i/o.Reps]
		return runReplica(cell, parsim.ShardSeed(o.Seed, i), o.Dur, o.Hosts)
	})

	g := GridResult{Results: make([]report.SLOResult, len(cells))}
	for i, out := range outs {
		if i%o.Reps == 0 {
			g.Results[i/o.Reps] = out.res
		} else {
			g.Results[i/o.Reps].Merge(out.res)
		}
		g.Violations = append(g.Violations, out.vios...)
	}
	return g, nil
}

// runReplica runs one replica as a chaos campaign: a fresh topology
// build (faults mutate the network, so replicas cannot share one), the
// workload attached to a strided host set, and the cell's fault. The
// grid's faults all heal (flaps end, the drop ramp returns to zero), so
// the full contract applies: complete delivery, no duplicates, bounded
// remapping.
func runReplica(cell gridCell, seed int64, dur time.Duration, nHosts int) replicaOut {
	b, err := topology.ParseSpec(cell.topo)
	if err != nil {
		panic(fmt.Sprintf("workload: topo %q validated then failed: %v", cell.topo, err))
	}
	hosts := strideHosts(b.Hosts, nHosts)
	spec := cell.spec
	spec.Seed = seed
	nSrv := serverSplit(spec, len(hosts))
	servers, clients := hosts[:nSrv], hosts[nSrv:]
	var d *Driver
	rep := chaos.Campaign{
		Name: spec.Scenario(),
		Config: func(seed int64) core.Config {
			return core.Config{
				Net: b.Net, Hosts: hosts, FT: true,
				Retrans: chaos.Retrans(8 * time.Millisecond),
				Mapper:  true,
				// Scan only the ports the fabric actually has: the default
				// radix would burn probe timeouts on ports that cannot exist.
				MapperCfg: mapping.Config{MaxRadix: maxSwitchRadix(b.Net)},
				Seed:      seed,
			}
		},
		Start: func(e *chaos.Engine) *chaos.Run {
			d = Attach(e, spec, clients, servers)
			if err := InstallFault(e, cell.fault, clients[0], servers[0]); err != nil {
				panic(fmt.Sprintf("workload: fault %q validated then failed: %v", cell.fault, err))
			}
			return d.Run()
		},
		Span:  dur,
		Check: chaos.CheckOpts{MaxRemapAttempts: 400},
	}.Run(seed)

	out := replicaOut{res: d.Result(cell.topo, cell.fault, dur)}
	var vios []string
	// A run cut off before its generators finished has not quiesced:
	// report that first, so the audit's in-flight findings read as its
	// consequence rather than as a protocol fault.
	if out.res.Issued < uint64(d.Spec.Ops) {
		vios = append(vios, fmt.Sprintf("op budget not drained: issued %d of %d",
			out.res.Issued, d.Spec.Ops))
	}
	for _, v := range rep.Violations {
		vios = append(vios, v.String())
	}
	for _, v := range vios {
		out.vios = append(out.vios, fmt.Sprintf("%s %s %s seed=%d %s",
			spec.Scenario(), cell.topo, cell.fault, seed, v))
	}
	return out
}

// strideHosts picks n hosts spread evenly across the list, so a replica
// on a big fabric exercises distant pods rather than one rack.
func strideHosts(all []topology.NodeID, n int) []topology.NodeID {
	if n <= 0 || n >= len(all) {
		return all
	}
	stride := len(all) / n
	out := make([]topology.NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*stride])
	}
	return out
}

// maxSwitchRadix returns the largest switch radix in the fabric.
func maxSwitchRadix(nw *topology.Network) int {
	r := 0
	for _, id := range nw.Switches() {
		if k := nw.Node(id).Radix(); k > r {
			r = k
		}
	}
	if r == 0 {
		r = 16
	}
	return r
}
