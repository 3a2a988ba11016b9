package proptest

import (
	"fmt"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/retrans"
	"sanft/internal/trace"
)

// SimResult is the verdict of one simulator-level scenario.
type SimResult struct {
	Scenario SimScenario
	// Violations holds chaos-invariant failures plus the proptest oracle's
	// own findings (per-pair delivery, FIFO ordering, drain).
	Violations []string
	Delivered  int
	Expected   int
	// UnreachablePairs counts traffic pairs waived from the delivery check
	// because the sender declared the destination unreachable.
	UnreachablePairs int
	// StaleHeld counts recovery triggers held during stale-map blind
	// windows (the remap.held counter); the stale-map oracle requires any
	// held trigger to replay into a remap attempt after resume.
	StaleHeld int
	// Recorder holds the run's flight recorder, for artifact dumps.
	Recorder *trace.FlightRecorder
}

// Failed reports whether the scenario violated any property.
func (r *SimResult) Failed() bool { return len(r.Violations) > 0 }

// Summary is a one-line description of the outcome.
func (r *SimResult) Summary() string {
	if !r.Failed() {
		return fmt.Sprintf("ok: %d/%d delivered, %d unreachable pairs",
			r.Delivered, r.Expected, r.UnreachablePairs)
	}
	return fmt.Sprintf("FAIL (%d violations): %s", len(r.Violations), r.Violations[0])
}

// unreachWatch tees trace events to the flight recorder while collecting
// the (src, dst) pairs the protocol declared unreachable — exactly the
// pairs whose message loss the paper's contract permits.
type unreachWatch struct {
	inner trace.Tracer
	pairs map[pairKey]bool
}

func (u *unreachWatch) Trace(e trace.Event) {
	if e.Kind == trace.EvUnreachable {
		u.pairs[pairKey{e.Node, e.Peer}] = true
	}
	u.inner.Trace(e)
}

// schedule adapts a generated fault list to the chaos engine. Victims are
// chosen by Index modulo the candidate set; a fault class with no
// candidates on this topology is a no-op, keeping every schedule valid on
// every topology (a shrinking prerequisite).
type schedule struct {
	faults []FaultEvent
	seed   int64
}

func (s schedule) ScenarioName() string { return "proptest" }

func (s schedule) Install(e *chaos.Engine) {
	trunks := chaos.TrunkLinks(e.C.Net)
	switches := e.C.Net.Switches()
	for fi, f := range s.faults {
		fi, f := fi, f
		switch f.Kind {
		case FaultLinkFlap, FaultLinkKill:
			if len(trunks) == 0 {
				continue
			}
			l := trunks[f.Index%len(trunks)]
			e.C.K.After(f.At, func() {
				e.RecordFault("proptest %s %s", f.Kind, chaos.LinkName(e.C.Net, l))
				e.C.Fab.KillLink(l)
				if f.Kind == FaultLinkFlap {
					e.C.K.After(f.Dur, func() {
						e.Record("proptest heal %s", chaos.LinkName(e.C.Net, l))
						e.C.Net.RestoreLink(l)
					})
				}
			})
		case FaultSwitchFlap:
			if len(switches) == 0 {
				continue
			}
			sw := switches[f.Index%len(switches)]
			e.C.K.After(f.At, func() {
				e.RecordFault("proptest switch-flap %s", e.C.Net.Node(sw).Name)
				e.C.Fab.KillSwitch(sw)
				e.C.K.After(f.Dur, func() {
					e.Record("proptest restore %s", e.C.Net.Node(sw).Name)
					e.C.Net.RestoreSwitch(sw)
				})
			})
		case FaultDropBurst:
			h := e.C.Hosts[f.Index%len(e.C.Hosts)]
			e.C.K.After(f.At, func() {
				e.RecordFault("proptest drop-burst rate=%g host %d", f.Rate, h)
				e.C.NIC(h).SetDropper(fault.NewRateSeeded(f.Rate,
					s.seed*65537+int64(h)*2654435761+int64(fi)*40503))
				e.C.K.After(f.Dur, func() {
					e.Record("proptest drop-burst end host %d", h)
					e.C.NIC(h).SetDropper(nil)
				})
			})
		case FaultStaleMap:
			h := e.C.Hosts[f.Index%len(e.C.Hosts)]
			e.C.K.After(f.At, func() {
				e.RecordFault("proptest stale-map host %d blind for %v", h, f.Dur)
				e.C.SuspendRemap(h)
				e.C.K.After(f.Dur, func() {
					e.Record("proptest stale-map end host %d", h)
					e.C.ResumeRemap(h)
				})
			})
		}
	}
}

// simRecovery paces recovery aggressively so scenarios quiesce within the
// drain window: short retransmission interval, fast permanent-failure
// detection, quick remap backoff and quarantine cycling, and a short
// wormhole watchdog.
func simRecovery() (retrans.Config, core.RemapPolicy, fabric.Config) {
	rc := retrans.Config{
		QueueSize:         16,
		Interval:          time.Millisecond,
		PermFailThreshold: 6 * time.Millisecond,
	}
	pol := core.RemapPolicy{
		Backoff:         time.Millisecond,
		BackoffMax:      8 * time.Millisecond,
		JitterFrac:      0.25,
		QuarantineAfter: 3,
		Quarantine:      10 * time.Millisecond,
		QuarantineMax:   40 * time.Millisecond,
	}
	fcfg := fabric.DefaultConfig()
	fcfg.Watchdog = 3 * time.Millisecond
	return rc, pol, fcfg
}

// RunSim executes one simulator-level scenario and checks every property.
func RunSim(sc SimScenario) *SimResult {
	return RunSimWith(sc, nil)
}

// RunSimWith is RunSim with a hook invoked after the engine is built and
// faults are installed but before traffic starts — used by tests that need
// extra instrumentation on the same deterministic run. The scenario runs
// as a chaos campaign; on top of the campaign's invariant audit this
// oracle adds FIFO ordering, the unreachable waiver, the stale-map replay
// check and the drain check.
func RunSimWith(sc SimScenario, pre func(*chaos.Engine)) *SimResult {
	res := &SimResult{Scenario: sc}
	nw, hosts := sc.Topo.Build()
	pairs := sc.pairList(hosts)
	if len(pairs) == 0 {
		return res
	}
	wpairs := make([]chaos.Pair, len(pairs))
	for i, p := range pairs {
		wpairs[i] = chaos.Pair{Src: p.src, Dst: p.dst}
	}
	rc, pol, fcfg := simRecovery()
	fr := trace.NewFlightRecorder(4096)
	watch := &unreachWatch{inner: fr, pairs: make(map[pairKey]bool)}
	res.Recorder = fr

	// FIFO-ordering oracle: per pair, notification message IDs must be
	// strictly increasing — retransmission, generation resets, and remaps
	// may lose messages (to unreachable peers) but never reorder them.
	lastID := make(map[chaos.Pair]uint64)
	seenID := make(map[chaos.Pair]bool)
	w := chaos.Workload{
		Pairs: wpairs,
		Msgs:  sc.Msgs,
		Bytes: sc.Bytes,
		Gap:   sc.Gap,
		OnNotify: func(p chaos.Pair, id uint64) {
			if seenID[p] && id <= lastID[p] {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"ordering: pair %d->%d notified message %d after %d", p.Src, p.Dst, id, lastID[p]))
			}
			lastID[p] = id
			seenID[p] = true
		},
	}

	// Run until every fault has struck and healed and the workload has had
	// time to send, then drain: long enough for the timer-driven recovery
	// machinery (retransmit → stale-path → remap → quarantine) to settle.
	var horizon time.Duration
	for _, f := range sc.Faults {
		if end := f.At + f.Dur; end > horizon {
			horizon = end
		}
	}
	if sendSpan := time.Duration(sc.Msgs)*sc.Gap + time.Millisecond; sendSpan > horizon {
		horizon = sendSpan
	}

	var c *core.Cluster
	var run *chaos.Run
	rep := chaos.Campaign{
		Name: "proptest",
		Config: func(seed int64) core.Config {
			return core.Config{
				Net:     nw,
				Hosts:   hosts,
				FT:      true,
				Retrans: rc,
				Mapper:  true,
				Remap:   pol,
				Fabric:  fcfg,
				Tracer:  watch,
				Seed:    seed,
			}
		},
		Start: func(e *chaos.Engine) *chaos.Run {
			c = e.C
			e.Install(schedule{faults: sc.Faults, seed: sc.Seed})
			if pre != nil {
				pre(e)
			}
			run = w.Start(e)
			return run
		},
		Span:  horizon + 2*time.Second,
		Check: chaos.CheckOpts{AllowLoss: true},
	}.Run(sc.Seed)
	for _, v := range rep.Violations {
		res.Violations = append(res.Violations, v.String())
	}

	// Stale-map oracle: triggers held during a blind window must replay
	// into real remap attempts once the window closes — a host that holds
	// recovery requests and then drops them on resume would pass the
	// delivery check only by luck (when the pre-failure map still works).
	res.StaleHeld = int(c.Metrics().CounterTotal("remap.held"))
	if res.StaleHeld > 0 && c.Metrics().CounterTotal("remap.attempts") == 0 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"stale-map: %d triggers held in the blind window but no remap attempt after resume",
			res.StaleHeld))
	}

	// Per-pair delivery: loss is only legal toward destinations the sender
	// explicitly declared unreachable — the paper's graceful-degradation
	// contract. Everything else must arrive in full.
	res.Expected = rep.Expected
	res.Delivered = rep.Delivered
	sawUnreach := len(watch.pairs) > 0
	for _, pr := range wpairs {
		if watch.pairs[pairKey{pr.Src, pr.Dst}] {
			res.UnreachablePairs++
			continue
		}
		if got := len(run.Counts[pr]); got != sc.Msgs {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"delivery: pair %d->%d delivered %d of %d with no unreachable verdict",
				pr.Src, pr.Dst, got, sc.Msgs))
		}
	}
	// With no unreachable verdict anywhere, every send buffer must have
	// drained back to free (the AllowLoss invariant pass skips this).
	if !sawUnreach {
		for _, h := range hosts {
			if snd := c.NIC(h).ProtoSender(); snd != nil {
				if u := snd.TotalUnacked(); u != 0 {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"drain: host %d holds %d unacked packets with no unreachable verdict", h, u))
				}
			}
		}
	}
	return res
}
