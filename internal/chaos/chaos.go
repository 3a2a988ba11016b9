// Package chaos turns the simulator's failure primitives — permanent link
// and switch kills, topology restoration, send-side error injection — into
// declarative, seed-driven fault campaigns with invariant checking.
//
// The paper argues that a system area network must keep delivering while
// links flap, switches die, and packets drop. A chaos campaign makes that
// claim testable: a Scenario schedules faults against a Cluster, a
// Workload drives traffic through the storm, and CheckInvariants asserts
// afterwards that the protocol stack honoured its contract — at-least-once
// delivery with exactly-once notifications, no stuck worms, no leaked NIC
// buffers, and remap activity bounded by the pacing policy.
//
// Everything is deterministic: the engine derives all randomness from one
// seed, so a campaign's event log is byte-identical across runs with the
// same seed — a failing campaign is a reproducible artifact, not an
// anecdote.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sanft/internal/core"
	"sanft/internal/metrics"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// Engine binds scenarios, a workload, and measurement to one cluster run.
// Its measurements — fault counts and the MTTR (delivery stall) histogram —
// live in the cluster's metrics (chaos.faults and chaos.delivery_stall_ns,
// recorded through core.Cluster.ClusterMetrics on every plan), so campaign
// telemetry exports alongside the protocol stack's own.
type Engine struct {
	C *core.Cluster
	// Seed drives every random choice the engine or its scenarios make.
	Seed int64

	// StallFloor is the smallest inter-delivery gap recorded as a recovery
	// (delivery stall) observation; gaps below it are normal pacing, not
	// outages. Default 1ms.
	StallFloor time.Duration

	rng    *rand.Rand
	events []string

	// inject, when non-nil, replaces the built-in synthetic workload for
	// StartTraffic calls — the hook sanload uses to drive campaigns with
	// production-shaped traffic (see Campaign.RunWithTraffic).
	inject TrafficInjector

	mttr    *metrics.Histogram
	faultsC *metrics.Counter
	fr      *trace.FlightRecorder
}

// NewEngine wraps a cluster for chaos experiments. The seed should usually
// match the cluster's, but any value gives a deterministic run. If the
// cluster's tracer is a flight recorder (see core.Cluster.InstallTracer),
// the engine adopts it: invariant violations freeze a snapshot, and the
// recorder is available through FlightRecorder for post-mortem dumps.
func NewEngine(c *core.Cluster, seed int64) *Engine {
	reg := c.ClusterMetrics()
	return &Engine{
		C:          c,
		Seed:       seed,
		StallFloor: time.Millisecond,
		rng:        rand.New(rand.NewSource(seed ^ 0x5eed)),
		mttr:       reg.Histogram("chaos.delivery_stall_ns", nil),
		faultsC:    reg.Counter("chaos.faults", nil),
		fr:         c.FlightRecorder(),
	}
}

// FlightRecorder returns the flight recorder adopted from the cluster
// (nil when tracing is off or the tracer is a plain ring).
func (e *Engine) FlightRecorder() *trace.FlightRecorder { return e.fr }

// MTTR returns the delivery-stall histogram — the engine's measure of how
// long faults held traffic up.
func (e *Engine) MTTR() *metrics.Histogram { return e.mttr }

// MTTRSummary renders the delivery-stall digest for reports.
func (e *Engine) MTTRSummary() string {
	if e.mttr.Count() == 0 {
		return "no recoveries observed"
	}
	return fmt.Sprintf("n=%d mean=%v p99≤%v p999≤%v max=%v",
		e.mttr.Count(), e.mttr.Mean(), e.mttr.Quantile(0.99), e.mttr.Quantile(0.999), e.mttr.Max())
}

// Rand returns the engine's seeded RNG. Scenarios draw their random
// choices (which trunk to flap, which switches to kill) from it so that
// one seed fixes the whole campaign.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Record appends one timestamped line to the event log.
func (e *Engine) Record(format string, args ...any) {
	e.events = append(e.events,
		fmt.Sprintf("[%12v] %s", e.C.Now(), fmt.Sprintf(format, args...)))
}

// RecordFault is Record for fault injections; it also counts the fault.
func (e *Engine) RecordFault(format string, args ...any) {
	e.faultsC.Inc()
	e.Record(format, args...)
}

// Faults returns the number of fault injections recorded so far.
func (e *Engine) Faults() int { return int(e.faultsC.Value()) }

// Events returns the number of event-log lines recorded so far.
func (e *Engine) Events() int { return len(e.events) }

// LogText returns the full event log, one line per event. Two runs of the
// same campaign with the same seed produce byte-identical logs.
func (e *Engine) LogText() string { return strings.Join(e.events, "\n") }

// Install schedules every scenario onto the cluster's kernel. Call before
// RunFor; the faults then fire at their simulated times.
func (e *Engine) Install(ss ...Scenario) {
	for _, s := range ss {
		e.Record("install scenario %s", s.ScenarioName())
		s.Install(e)
	}
}

// observeGap feeds one inter-delivery gap into the MTTR histogram if it
// qualifies as a stall.
func (e *Engine) observeGap(d time.Duration) {
	if d >= e.StallFloor {
		e.mttr.Observe(d)
	}
}

// TrunkLinks returns the switch-to-switch links of nw — the candidates
// scenarios fail by default (host links sever a node outright, which the
// paper treats as out of scope).
func TrunkLinks(nw *topology.Network) []*topology.Link {
	var out []*topology.Link
	for _, l := range nw.Links {
		if nw.Node(l.A.Node).Kind == topology.Switch &&
			nw.Node(l.B.Node).Kind == topology.Switch {
			out = append(out, l)
		}
	}
	return out
}

// LinkName renders a link as "name<->name" for event logs.
func LinkName(nw *topology.Network, l *topology.Link) string {
	return fmt.Sprintf("%s<->%s", nw.Node(l.A.Node).Name, nw.Node(l.B.Node).Name)
}

// CutLinks returns every usable link with one endpoint in group a and the
// other in group b — the cut set a Partition scenario severs.
func CutLinks(nw *topology.Network, a, b []topology.NodeID) []*topology.Link {
	inA := map[topology.NodeID]bool{}
	for _, n := range a {
		inA[n] = true
	}
	inB := map[topology.NodeID]bool{}
	for _, n := range b {
		inB[n] = true
	}
	var out []*topology.Link
	for _, l := range nw.Links {
		x, y := l.A.Node, l.B.Node
		if (inA[x] && inB[y]) || (inA[y] && inB[x]) {
			out = append(out, l)
		}
	}
	return out
}
