package chaos

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/topology"
)

// The scale tier: chaos campaigns on thousand-host datacenter fabrics on
// a multi-cell plan. A scale run is an ordinary Campaign: it builds the
// fabric from a topology spec, schedules a topology-knowledge fault
// pattern as precomputed global events, drives the cell-native flow
// matrix (Engine.StartFlows), and is audited by the full invariant oracle.
// Everything is byte-identical for any worker count (the cell partition
// defines the semantics), which is what makes the 1k-host differential
// gate possible.

// The scale tier's fixed shape: four 256-byte messages per flow paced
// 8ms apart, so frames stay in flight across the whole fault window
// (2ms to 32ms: a flap storm is over and healed, a gray window cleared,
// by then), and an 80ms span that leaves the retransmission tail room to
// drain. Flap-storm down times are 1–4ms; gray trunks drop 25%.
const (
	scaleMsgs     = 4
	scaleBytes    = 256
	scaleGap      = 8 * time.Millisecond
	scaleSpan     = 80 * time.Millisecond
	scaleStart    = 2 * time.Millisecond
	scaleWindow   = 30 * time.Millisecond
	scaleMinDown  = time.Millisecond
	scaleMaxDown  = 4 * time.Millisecond
	scaleGrayRate = 0.25
)

// ScaleOpts configures one scale campaign.
type ScaleOpts struct {
	// Topo is a topology spec for topology.ParseSpec ("fattree:8",
	// "dragonfly:4,2,2", "torus:2,4,4"). Default "fattree:8".
	Topo string
	// Scenario selects the fault pattern: "flapstorm" (a seeded
	// FlapStormSchedule over every trunk), "gray" (probabilistic loss on
	// every GrayEvery-th trunk for the fault window), or "" / "none" for a
	// fault-free run.
	Scenario string
	Seed     int64
	// Workers is the OS-thread count (0 = GOMAXPROCS). Never changes
	// results, only wall-clock time.
	Workers int
	// HostsPerShard sets the cell granularity; 0 groups the hosts into
	// about 16 cells.
	HostsPerShard int

	// Flows caps the flow matrix (host i sends to the host half the
	// fabric away, so every flow crosses the core). 0 = one flow per
	// host.
	Flows int
	// Events is the flap-storm draw count (see FlapStormSchedule);
	// default 96.
	Events int
	// GrayEvery grays every GrayEvery-th trunk; default 8.
	GrayEvery int
}

// ScaleReport is a scale campaign's report plus the cluster it ran on,
// whose accessors give the engine facts (Shards, Workers, Epochs,
// Exchanged, TotalExecuted) and the observable dump (DumpObservables).
type ScaleReport struct {
	*Report
	C *core.Cluster
}

// ScaleFlows builds the deterministic flow matrix for a host list: host i
// sends to the host half the fabric away, so on any of the builders every
// flow crosses the trunk tier the scenarios attack. n caps the number of
// flows (0 = one per host).
func ScaleFlows(hosts []topology.NodeID, n int) []core.Flow {
	h := len(hosts)
	if n <= 0 || n > h {
		n = h
	}
	flows := make([]core.Flow, 0, n)
	for i := 0; i < n; i++ {
		j := (i + h/2) % h
		if j == i {
			continue
		}
		flows = append(flows, core.Flow{Src: hosts[i], Dst: hosts[j]})
	}
	return flows
}

// RunScale executes one scale campaign on a multi-cell plan built from
// the topology spec. Returns an error only for an unusable spec or
// scenario name; audit failures land in the report's Violations.
func RunScale(o ScaleOpts) (*ScaleReport, error) {
	if o.Topo == "" {
		o.Topo = "fattree:8"
	}
	if o.Events == 0 {
		o.Events = 96
	}
	if o.GrayEvery == 0 {
		o.GrayEvery = 8
	}
	if o.Scenario == "" {
		o.Scenario = "none"
	}
	switch o.Scenario {
	case "flapstorm", "gray", "none":
	default:
		return nil, fmt.Errorf("chaos: unknown scale scenario %q (want flapstorm, gray, or none)", o.Scenario)
	}
	built, err := topology.ParseSpec(o.Topo)
	if err != nil {
		return nil, err
	}
	hps := o.HostsPerShard
	if hps == 0 {
		hps = (len(built.Hosts) + 15) / 16
	}
	rep := &ScaleReport{}
	rep.Report = Campaign{
		Name: o.Scenario + "@" + o.Topo,
		Config: func(seed int64) core.Config {
			return core.Config{
				Net: built.Net, Hosts: built.Hosts, FT: true,
				// The mapper stays off at this scale, so a permanent-failure
				// verdict would have no recovery path: the threshold sits
				// past the end of the run and retransmission alone rides
				// out every (healing) fault.
				Retrans: Retrans(4 * scaleSpan),
				Engine:  core.EngineSharded,
				Plan:    core.ShardPlan{HostsPerShard: hps},
				Workers: o.Workers,
				Seed:    seed,
			}
		},
		Start: func(e *Engine) *Run {
			rep.C = e.C
			installScale(e, o.Scenario, built.Trunks, o.Events, o.GrayEvery)
			return e.StartFlows(ScaleFlows(built.Hosts, o.Flows), scaleMsgs, scaleBytes, scaleGap)
		},
		Span: scaleSpan,
	}.Run(o.Seed)
	return rep, nil
}

// installScale schedules a scale scenario's faults as global events over
// the fault window, recording each in the event log.
func installScale(e *Engine, scenario string, trunks []*topology.Link, events, grayEvery int) {
	switch scenario {
	case "flapstorm":
		ids := make([]int, len(trunks))
		for i, l := range trunks {
			ids[i] = l.ID
		}
		sched := FlapStormSchedule(ids, e.Seed, events, scaleWindow, scaleMinDown, scaleMaxDown)
		for i := range sched {
			sched[i].At += scaleStart
			e.RecordFault("flap-storm %s down at %v for %v",
				LinkName(e.C.Net, e.C.Net.Links[sched[i].Link]), sched[i].At, sched[i].Dur)
		}
		e.C.ScheduleLinkFlaps(sched)
	case "gray":
		for i := 0; i < len(trunks); i += grayEvery {
			e.RecordFault("gray %s at rate %g from %v for %v",
				LinkName(e.C.Net, trunks[i]), scaleGrayRate, scaleStart, scaleWindow)
			e.C.ScheduleLinkLoss(trunks[i].ID, scaleGrayRate, scaleStart, scaleWindow)
		}
	}
}
