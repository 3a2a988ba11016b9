package sanft

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/parsim"
	"sanft/internal/proptest"
	"sanft/internal/topology"
)

// gateFlows picks cross-switch flows on the Fig. 2 testbed: every pair
// crosses at least one trunk, so the link-flap schedule actually bites.
func gateFlows(f *topology.Fig2) []Flow {
	var flows []Flow
	// S0 hosts to S1/S2/S3 hosts and back — 12 directed flows.
	flows = append(flows,
		Flow{Src: f.HostsAt[0][0], Dst: f.HostsAt[1][0]},
		Flow{Src: f.HostsAt[1][0], Dst: f.HostsAt[0][0]},
		Flow{Src: f.HostsAt[0][1], Dst: f.HostsAt[2][0]},
		Flow{Src: f.HostsAt[2][0], Dst: f.HostsAt[0][1]},
		Flow{Src: f.HostsAt[0][2], Dst: f.HostsAt[3][0]},
		Flow{Src: f.HostsAt[3][0], Dst: f.HostsAt[0][2]},
		Flow{Src: f.HostsAt[1][1], Dst: f.HostsAt[2][1]},
		Flow{Src: f.HostsAt[2][1], Dst: f.HostsAt[1][1]},
		Flow{Src: f.HostsAt[1][2], Dst: f.HostsAt[3][1]},
		Flow{Src: f.HostsAt[3][1], Dst: f.HostsAt[1][2]},
		Flow{Src: f.HostsAt[0][3], Dst: f.HostsAt[1][3]},
		Flow{Src: f.HostsAt[2][2], Dst: f.HostsAt[3][2]},
	)
	return flows
}

// gateDump runs the reference parallel scenario — Fig. 2 topology, a
// link-flap schedule on two trunks, 12 cross-switch retransmitting flows
// — with the given worker count, and renders every observable output:
// merged delivery order, metrics summary + JSONL, Perfetto export, and
// each shard's post-run RNG state.
func gateDump(t testing.TB, seed int64, workers int, extra ...Option) []byte {
	t.Helper()
	f := NewFig2()
	opts := []Option{
		WithTopology(f.Net, nil),
		WithSeed(seed),
		WithRetrans(RetransConfig{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 50 * time.Millisecond,
		}),
		WithFaultTolerance(),
		WithEngine(EngineSharded),
		WithWorkers(workers),
	}
	s := New(append(opts, extra...)...)
	// Flap two distinct trunks while traffic is in flight: packets die on
	// dead links mid-run and the retransmission protocol recovers them.
	s.FlapTrunk(0, 2*time.Millisecond, 3*time.Millisecond)
	s.FlapTrunk(2, 4*time.Millisecond, 2*time.Millisecond)
	s.StartFlows(gateFlows(f), 8, 512, 200*time.Microsecond)
	s.RunFor(40 * time.Millisecond)

	var b bytes.Buffer
	b.Write(s.DumpObservables())
	// Per-shard RNG discipline: the post-run generator state must also be
	// worker-independent (draws consumed only by shard-local events).
	b.WriteString("--- rng ---\n")
	for i := 0; i < s.Shards(); i++ {
		fmt.Fprintf(&b, "shard %d: %d\n", i, s.CellKernel(i).Rand().Int63())
	}
	s.Stop()
	return b.Bytes()
}

// TestParallelByteIdentical is the differential determinism gate: the
// sharded engine's complete observable output — delivery order, metrics
// dump, trace export, RNG states — must be byte-identical for 1, 2, and
// 4 workers. The partition (one shard per host) defines the semantics;
// the worker count may only change wall-clock time.
func TestParallelByteIdentical(t *testing.T) {
	ref := gateDump(t, 7, 1)
	for _, w := range []int{2, 4} {
		got := gateDump(t, 7, w)
		if !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}

	// The run must have actually delivered traffic through the flapped
	// trunks, or the gate proves nothing.
	if !bytes.Contains(ref, []byte("deliver")) {
		t.Fatal("gate scenario delivered no frames")
	}
	// And a different seed must change the output — the dump must not be
	// trivially constant.
	other := gateDump(t, 8, 1)
	if bytes.Equal(ref, other) {
		t.Fatal("different seeds produced identical dumps — dump is not sensitive to the run")
	}
}

// TestParallelByteIdenticalLiveness re-runs the differential gate with
// per-path liveness sessions and adaptive retransmission enabled: session
// timers, jittered control traffic, and RTT observations all draw from
// session-local RNGs seeded from (cluster seed, src, dst) — never from a
// shard or worker — so the observable dump must stay byte-identical at
// any worker count. It must also differ from the baseline dump (the
// sessions must actually run) and stay seed-sensitive.
func TestParallelByteIdenticalLiveness(t *testing.T) {
	live := []Option{WithLiveness(), WithAdaptiveRetrans()}
	ref := gateDump(t, 7, 1, live...)
	for _, w := range []int{2, 4} {
		got := gateDump(t, 7, w, live...)
		if !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("liveness workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}
	if !bytes.Contains(ref, []byte("liveness.tx")) {
		t.Fatal("liveness gate dump records no liveness.tx metric — sessions never ran")
	}
	if bytes.Equal(ref, gateDump(t, 7, 1)) {
		t.Fatal("liveness dump identical to baseline dump — options had no effect")
	}
	if bytes.Equal(ref, gateDump(t, 8, 1, live...)) {
		t.Fatal("different seeds produced identical liveness dumps")
	}
}

// TestParallelByteIdenticalCoarseShards re-runs the differential gate
// with a coarse partition (three hosts per shard): the shard plan — not
// the worker count — defines the semantics, so within one plan every
// worker count must produce the same bytes. The coarse dump legitimately
// differs from the fine-partition dump (different shard count, exchange
// counts, trace merge order); what must not vary is the worker count.
func TestParallelByteIdenticalCoarseShards(t *testing.T) {
	coarse := []Option{WithShardPlan(ShardPlan{HostsPerShard: 3})}
	ref := gateDump(t, 7, 1, coarse...)
	for _, w := range []int{2, 4} {
		got := gateDump(t, 7, w, coarse...)
		if !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("coarse workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}
	if !bytes.Contains(ref, []byte("deliver")) {
		t.Fatal("coarse gate scenario delivered no frames")
	}
	if bytes.Equal(ref, gateDump(t, 8, 1, coarse...)) {
		t.Fatal("different seeds produced identical coarse dumps")
	}
}

// TestParallelByteIdentical1kHosts is the differential gate at datacenter
// scale: a 1024-host fat-tree (k=16) under a correlated link-flap storm,
// run with 1, 2, and 4 workers, must produce byte-identical observable
// dumps — and the run itself must pass the full invariant oracle.
// Skipped under -short: each run simulates 64 cells through a 96-event
// storm (a few seconds of wall time per worker count).
func TestParallelByteIdentical1kHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-host differential gate skipped in -short mode")
	}
	run := func(seed int64, workers int) (*chaos.ScaleReport, []byte) {
		rep, err := chaos.RunScale(chaos.ScaleOpts{
			Topo:     "fattree:16",
			Scenario: "flapstorm",
			Seed:     seed,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("seed %d workers=%d run violates invariants: %v", seed, workers, rep.Violations)
		}
		return rep, rep.C.DumpObservables()
	}
	refRep, ref := run(7, 1)
	if n := len(refRep.C.Hosts); n != 1024 {
		t.Fatalf("fattree:16 built %d hosts, want 1024", n)
	}
	if refRep.Faults == 0 || refRep.Delivered == 0 {
		t.Fatalf("gate proves nothing: %d faults, %d deliveries", refRep.Faults, refRep.Delivered)
	}
	for _, w := range []int{2, 4} {
		if _, got := run(7, w); !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("1k-host workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}
	// Seed sensitivity: a different storm must change the bytes.
	if _, other := run(8, 4); bytes.Equal(ref, other) {
		t.Fatal("different seeds produced identical 1k-host dumps")
	}
}

type lineDiff struct {
	n    int
	a, b string
}

func firstDiffLine(a, b []byte) lineDiff {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return lineDiff{n: i + 1, a: string(la[i]), b: string(lb[i])}
		}
	}
	return lineDiff{n: len(la), a: "<end>", b: "<end>"}
}

// TestParallelRunToRunDeterministic: same seed, same worker count, two
// fresh runs — byte-identical (the proptest oracle contract, applied to
// the parallel engine at its highest tested worker count).
func TestParallelRunToRunDeterministic(t *testing.T) {
	proptest.RequireDeterministic(t, 11, func(seed int64) []byte {
		return gateDump(t, seed, 4)
	})
}

// TestParallelDeliversAllTraffic: the gate scenario is lossy mid-run
// (two trunk flaps) but the retransmission protocol must still complete
// every message by quiesce.
func TestParallelDeliversAllTraffic(t *testing.T) {
	f := NewFig2()
	s := New(
		WithTopology(f.Net, nil),
		WithSeed(3),
		WithRetrans(RetransConfig{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 50 * time.Millisecond,
		}),
		WithFaultTolerance(),
		WithEngine(EngineSharded),
		WithWorkers(2),
	)
	s.FlapTrunk(0, 2*time.Millisecond, 3*time.Millisecond)
	flows := gateFlows(f)
	const msgs = 8
	s.StartFlows(flows, msgs, 512, 200*time.Microsecond)
	s.RunFor(60 * time.Millisecond)
	defer s.Stop()

	// Every (flow, msg) must appear in the merged delivery log exactly
	// once (dedup by retransmission is the protocol's job).
	type key struct {
		src, dst NodeID
		msg      uint64
	}
	seen := make(map[key]int)
	for _, d := range s.Deliveries() {
		seen[key{d.Src, d.Dst, d.Msg}]++
	}
	for _, fl := range flows {
		for m := 1; m <= msgs; m++ {
			k := key{fl.Src, fl.Dst, uint64(m)}
			if seen[k] != 1 {
				t.Errorf("flow %d->%d msg %d delivered %d times, want exactly 1",
					fl.Src, fl.Dst, m, seen[k])
			}
		}
	}
	if s.Exchanged() == 0 {
		t.Fatal("no packets crossed shard boundaries — scenario exercised nothing")
	}
}

// TestShardSeedDiscipline: shard kernel seeds must derive from
// (root seed, shard index) via parsim.ShardSeed — independent kernels
// whose streams never depend on worker scheduling.
func TestShardSeedDiscipline(t *testing.T) {
	s := New(WithStar(4), WithSeed(99), WithEngine(EngineSharded), WithWorkers(2))
	defer s.Stop()
	for i := range s.Hosts {
		want := parsim.ShardSeed(99, i)
		fresh := New(WithStar(4), WithSeed(99), WithEngine(EngineSharded), WithWorkers(1))
		got := fresh.CellKernel(i).Rand().Int63()
		ref := s.CellKernel(i).Rand().Int63()
		fresh.Stop()
		if got != ref {
			t.Fatalf("shard %d: first draw differs across builds (%d vs %d) — seeds not derived from (root, shard) = (%d, %d) -> %d",
				i, got, ref, 99, i, want)
		}
	}
}
