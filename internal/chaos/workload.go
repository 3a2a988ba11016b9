package chaos

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Pair is one directed traffic flow.
type Pair struct {
	Src, Dst topology.NodeID
}

// AllPairs returns every directed pair over hosts.
func AllPairs(hosts []topology.NodeID) []Pair {
	var out []Pair
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				out = append(out, Pair{s, d})
			}
		}
	}
	return out
}

// Workload drives traffic through a chaos run: Msgs messages of Bytes
// each, per pair, with Gap between sends (plus a per-source stagger so
// flows do not march in lockstep).
type Workload struct {
	Pairs []Pair
	Msgs  int           // default 6
	Bytes int           // default 512
	Gap   time.Duration // default 200µs

	// OnNotify, if set, observes every notification as it arrives (in
	// event context), in delivery order per pair. External checkers — the
	// proptest ordering oracle, for one — need the sequence, which Counts
	// alone cannot reconstruct.
	OnNotify func(Pair, uint64)
}

// TrafficSource abstracts what a campaign drives through the fault
// schedule: anything that can start traffic against an engine's cluster
// and return the observation state the invariant oracle audits. The
// built-in synthetic Workload is one source; internal/workload's
// production-shaped generators are another.
type TrafficSource interface {
	Start(e *Engine) *Run
}

// TrafficInjector builds a replacement traffic source for a campaign's
// default workload. The default is passed in so injectors can reuse its
// shape — most importantly Pairs, which encodes the hosts the campaign's
// fault schedule targets.
type TrafficInjector func(e *Engine, dflt Workload) *Run

// StartTraffic starts the campaign's traffic: the injected source when
// one is installed (Campaign.RunWithTraffic), else the built-in default.
// Campaigns route every workload start through here so an injected
// workload inherits the full campaign — topology, fault schedule,
// invariant oracle, and report — without forking it.
func (e *Engine) StartTraffic(dflt Workload) *Run {
	if e.inject != nil {
		return e.inject(e, dflt)
	}
	return dflt.Start(e)
}

// Run is a started workload's observation state. Receivers record every
// notification; CheckInvariants consumes the counts afterwards.
type Run struct {
	W Workload
	// Counts maps each pair to notification counts per message ID — the
	// raw material for the delivery and dedup invariants.
	Counts map[Pair]map[uint64]int

	// Sent, when non-nil, is the per-pair set of injected message IDs —
	// the expectation side of the delivery invariant for external traffic
	// sources, which (unlike the built-in workload) do not send a fixed
	// Msgs per pair. Populate through NoteSent.
	Sent map[Pair]map[uint64]bool

	// fromLog marks a run whose counts the runner fills from the
	// cluster's delivery log at quiesce (see Engine.StartFlows).
	fromLog bool

	lastDelivery map[Pair]sim.Time
}

// NewExternalRun returns an empty Run with send-side accounting enabled,
// for traffic sources implemented outside this package: record every
// Import.Send with NoteSent and every notification with NoteDelivered,
// and CheckInvariants audits the external traffic exactly as it does the
// built-in workload's.
func (e *Engine) NewExternalRun() *Run {
	return &Run{
		Counts:       make(map[Pair]map[uint64]int),
		Sent:         make(map[Pair]map[uint64]bool),
		lastDelivery: make(map[Pair]sim.Time),
	}
}

// NoteSent records one injected message (the ID returned by Import.Send)
// on the directed pair.
func (r *Run) NoteSent(pr Pair, id uint64) {
	m := r.Sent[pr]
	if m == nil {
		m = make(map[uint64]bool)
		r.Sent[pr] = m
	}
	m[id] = true
}

// NoteDelivered records one completion notification on the directed pair
// and feeds the engine's delivery-stall (MTTR) histogram, mirroring what
// the built-in workload's receivers do.
func (e *Engine) NoteDelivered(r *Run, pr Pair, id uint64) { e.noteAt(r, pr, id, e.C.Now()) }

// noteAt is NoteDelivered for a notification that arrived at time at.
func (e *Engine) noteAt(r *Run, pr Pair, id uint64, at sim.Time) {
	m := r.Counts[pr]
	if m == nil {
		m = make(map[uint64]int)
		r.Counts[pr] = m
	}
	m[id]++
	if last, ok := r.lastDelivery[pr]; ok {
		e.observeGap(at.Sub(last))
	}
	r.lastDelivery[pr] = at
}

// StartFlows drives the cluster's frame-level flow matrix
// (core.Cluster.StartFlows), the traffic every plan runs, and returns a
// run that expects each of the msgs messages of every flow. The campaign
// runner fills its counts from the merged delivery log at quiesce, so
// the delivery, dedup and stall accounting match the built-in workload's.
func (e *Engine) StartFlows(flows []core.Flow, msgs, bytes int, gap time.Duration) *Run {
	e.paceFloor(gap)
	r := e.NewExternalRun()
	r.fromLog = true
	for _, f := range flows {
		for m := 1; m <= msgs; m++ {
			r.NoteSent(Pair{f.Src, f.Dst}, uint64(m))
		}
	}
	e.C.StartFlows(flows, msgs, bytes, gap)
	return r
}

// paceFloor keeps the stall floor above twice the send gap: a delivery
// gap at the workload's own pace is not a stall, so MTTR records only
// fault-induced delays.
func (e *Engine) paceFloor(gap time.Duration) {
	if e.StallFloor < 2*gap {
		e.StallFloor = 2 * gap
	}
}

// Start exports a buffer per pair, spawns the receive and send processes,
// and returns the observation state. Call before the cluster runs.
func (w Workload) Start(e *Engine) *Run {
	if w.Msgs == 0 {
		w.Msgs = 6
	}
	if w.Bytes == 0 {
		w.Bytes = 512
	}
	if w.Gap == 0 {
		w.Gap = 200 * time.Microsecond
	}
	e.paceFloor(w.Gap)
	r := &Run{
		W:            w,
		Counts:       make(map[Pair]map[uint64]int),
		lastDelivery: make(map[Pair]sim.Time),
	}
	for i, pr := range w.Pairs {
		pr := pr
		name := fmt.Sprintf("chaos-%d", pr.Src)
		exp := e.C.Endpoint(pr.Dst).Export(name, w.Bytes*4)
		r.Counts[pr] = make(map[uint64]int)
		e.C.K.Spawn(fmt.Sprintf("chaos-recv-%d-%d", pr.Src, pr.Dst), func(p *sim.Proc) {
			for {
				n := exp.WaitNotification(p)
				r.Counts[pr][n.MsgID]++
				if w.OnNotify != nil {
					w.OnNotify(pr, n.MsgID)
				}
				if last, ok := r.lastDelivery[pr]; ok {
					e.observeGap(p.Now().Sub(last))
				}
				r.lastDelivery[pr] = p.Now()
			}
		})
		stagger := time.Duration(i%7) * 37 * time.Microsecond
		e.C.K.Spawn(fmt.Sprintf("chaos-send-%d-%d", pr.Src, pr.Dst), func(p *sim.Proc) {
			p.Sleep(stagger)
			imp, err := e.C.Endpoint(pr.Src).Import(pr.Dst, name)
			if err != nil {
				panic(fmt.Sprintf("chaos: import %d->%d: %v", pr.Src, pr.Dst, err))
			}
			for m := 0; m < w.Msgs; m++ {
				imp.Send(p, 0, make([]byte, w.Bytes), true)
				p.Sleep(w.Gap)
			}
		})
	}
	return r
}

// Expected returns the number of messages the workload injects in total:
// the send-side accounting when enabled, else the fixed pair × msg grid.
func (r *Run) Expected() int {
	if r.Sent != nil {
		n := 0
		for _, ids := range r.Sent {
			n += len(ids)
		}
		return n
	}
	return len(r.W.Pairs) * r.W.Msgs
}

// NumPairs returns the number of directed pairs the run drove traffic on.
func (r *Run) NumPairs() int {
	if r.Sent != nil {
		return len(r.Sent)
	}
	return len(r.W.Pairs)
}

// Delivered returns the number of distinct messages that produced at
// least one notification.
func (r *Run) Delivered() int {
	n := 0
	for _, ids := range r.Counts {
		n += len(ids)
	}
	return n
}

// Duplicates returns the number of extra notifications beyond the first
// per message — nonzero means the exactly-once notification contract
// broke.
func (r *Run) Duplicates() int {
	n := 0
	for _, ids := range r.Counts {
		for _, c := range ids {
			if c > 1 {
				n += c - 1
			}
		}
	}
	return n
}
