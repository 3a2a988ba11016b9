package chaos

import (
	"fmt"
	"sort"
)

// sortedPairs returns the keys of a pair-keyed map ordered by (Src, Dst).
func sortedPairs[V any](m map[Pair]V) []Pair {
	out := make([]Pair, 0, len(m))
	for pr := range m {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Violation is one failed invariant, with enough detail to act on.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// CheckOpts tunes the invariant checker to the campaign's contract.
type CheckOpts struct {
	// AllowLoss admits campaigns in which some destinations were declared
	// unreachable: delivery may be partial and buffers pending to
	// quarantined destinations are tolerated. The dedup, worm, and
	// conservation invariants still apply in full.
	AllowLoss bool
	// MaxRemapAttempts, if positive, bounds cluster-wide mapping runs —
	// the remap-storm invariant: flapping must not translate into
	// unbounded remapping.
	MaxRemapAttempts int
}

// CheckInvariants audits a finished chaos run. Call it after the cluster
// has stopped, with enough drain time for in-flight traffic to settle.
// It returns every violated invariant (empty means the run passed):
//
//   - delivery: every injected message was notified at least once
//     (skipped under AllowLoss);
//   - dedup: no message was notified more than once, even across
//     retransmissions and generation resets;
//   - worms: no worm is still held inside the fabric at quiesce;
//   - remap-idle: no mapping run is still active at quiesce;
//   - buffers: per NIC, free buffers + unacknowledged packets equals the
//     queue size (nothing leaked), and without AllowLoss every buffer has
//     drained back to free;
//   - acks: no delayed-ack timer is still armed at quiesce;
//   - remap-bound: mapping runs stayed within MaxRemapAttempts.
func CheckInvariants(e *Engine, r *Run, o CheckOpts) []Violation {
	var out []Violation
	bad := func(inv, format string, args ...any) {
		out = append(out, Violation{inv, fmt.Sprintf(format, args...)})
	}

	if r != nil && r.Sent != nil {
		// External traffic source: the expectation is the send-side
		// accounting, not a fixed pair × msg grid. Pairs iterate in sorted
		// order so a violating run reports deterministically.
		for _, pr := range sortedPairs(r.Sent) {
			if !o.AllowLoss {
				missing := 0
				for id := range r.Sent[pr] {
					if r.Counts[pr][id] == 0 {
						missing++
					}
				}
				if missing > 0 {
					bad("delivery", "pair %d->%d delivered %d of %d messages",
						pr.Src, pr.Dst, len(r.Sent[pr])-missing, len(r.Sent[pr]))
				}
			}
		}
		for _, pr := range sortedPairs(r.Counts) {
			dups := 0
			for _, c := range r.Counts[pr] {
				if c > 1 {
					dups += c - 1
				}
			}
			if dups > 0 {
				bad("dedup", "pair %d->%d saw %d duplicate notifications",
					pr.Src, pr.Dst, dups)
			}
		}
	} else if r != nil {
		if !o.AllowLoss {
			for _, pr := range r.W.Pairs {
				if got := len(r.Counts[pr]); got != r.W.Msgs {
					bad("delivery", "pair %d->%d delivered %d of %d messages",
						pr.Src, pr.Dst, got, r.W.Msgs)
				}
			}
		}
		for _, pr := range r.W.Pairs {
			for id, c := range r.Counts[pr] {
				if c > 1 {
					bad("dedup", "pair %d->%d message %d notified %d times",
						pr.Src, pr.Dst, id, c)
				}
			}
		}
	}

	if n, detail := e.C.WormsInFlight(); n != 0 {
		bad("worms", "%d worms still in flight at quiesce: %v", n, detail)
	}

	if running, armed := e.C.RemapInFlight(); running != 0 {
		bad("remap-idle", "%d mapping runs still active at quiesce (%d retry timers armed)",
			running, armed)
	}

	for _, h := range e.C.Hosts {
		n := e.C.NIC(h)
		snd := n.ProtoSender()
		if snd == nil {
			continue
		}
		q := snd.Config().QueueSize
		free, unacked := n.FreeBuffers(), snd.TotalUnacked()
		if free+unacked != q {
			bad("buffers", "host %d: free %d + unacked %d != queue %d (leak)",
				h, free, unacked, q)
		}
		if !o.AllowLoss && unacked != 0 {
			bad("buffers", "host %d: %d packets still unacknowledged at quiesce",
				h, unacked)
		}
		if k := n.PendingDelayedAcks(); k != 0 {
			bad("acks", "host %d: %d delayed-ack timers still armed", h, k)
		}
	}

	// The remap bound audits the metrics registry, not the cluster's
	// legacy counters: the bound holds over everything the remap managers
	// recorded, and the checker exercises the same telemetry users see.
	attempts := e.C.Metrics().CounterTotal("remap.attempts")
	if o.MaxRemapAttempts > 0 && attempts > uint64(o.MaxRemapAttempts) {
		bad("remap-bound", "%d mapping runs, bound %d (stats %+v)",
			attempts, o.MaxRemapAttempts, e.C.RemapStats)
	}
	return out
}
