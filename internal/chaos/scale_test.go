package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sanft/internal/core"
	"sanft/internal/topology"
)

// ScaleFlows pairs host i with the host half the list away and honours
// its cap.
func TestScaleFlows(t *testing.T) {
	hosts := []topology.NodeID{10, 11, 12, 13, 14, 15}
	flows := ScaleFlows(hosts, 0)
	if len(flows) != 6 || flows[0].Src != 10 || flows[0].Dst != 13 || flows[4].Dst != 11 {
		t.Fatalf("flows %v", flows)
	}
	if got := ScaleFlows(hosts, 2); len(got) != 2 {
		t.Fatalf("cap 2 gave %d flows", len(got))
	}
}

// A small scale campaign runs every scenario to a passing invariant
// audit, byte-identically for one and two workers, and rejects an
// unknown scenario.
func TestRunScaleSmall(t *testing.T) {
	for _, sc := range []string{"flapstorm", "gray", "none"} {
		run := func(workers int) *ScaleReport {
			rep, err := RunScale(ScaleOpts{Topo: "fattree:4", Scenario: sc, Seed: 3, Workers: workers,
				HostsPerShard: 4, Events: 12, GrayEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		rep := run(1)
		if !rep.Passed() || rep.Delivered != rep.Expected || rep.Expected != 16*4 {
			t.Fatalf("%s: %s", sc, rep)
		}
		if rep.C.Shards() != 4 || (sc != "none" && rep.Faults == 0) {
			t.Fatalf("%s: %d shards, %d faults", sc, rep.C.Shards(), rep.Faults)
		}
		if !strings.Contains(rep.String(), "PASS") {
			t.Fatalf("%s: report %q", sc, rep)
		}
		if !bytes.Equal(rep.C.DumpObservables(), run(2).C.DumpObservables()) {
			t.Fatalf("%s: workers=2 dump differs", sc)
		}
	}
	if _, err := RunScale(ScaleOpts{Topo: "fattree:4", Scenario: "meteor"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// Scale gray on fattree:8 (the sanchaos default topology) must quiesce
// within the span: the gray window closes, so no go-back-N retry can keep
// failing on a lossy trunk past the end of the run, and the full oracle —
// delivery, dedup, worms, drained buffers, acks — holds with no loss
// allowance.
func TestRunScaleGrayDrains(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rep, err := RunScale(ScaleOpts{Topo: "fattree:8", Scenario: "gray", Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() || rep.Faults == 0 || rep.Delivered != rep.Expected {
			t.Fatalf("seed %d:\n%s", seed, rep.Report)
		}
	}
}

// The engine's metrics land in the cluster's merged registry on every
// plan, so Metrics and DumpObservables show them on several cells too.
func TestEngineMetricsOnEveryPlan(t *testing.T) {
	for _, kind := range []core.EngineKind{core.EngineSequential, core.EngineSharded} {
		c := core.New(core.Config{NumHosts: 4, FT: true, Engine: kind})
		e := NewEngine(c, 1)
		e.RecordFault("probe fault")
		e.observeGap(5 * time.Millisecond)
		if e.Faults() != 1 {
			t.Fatalf("%v: engine counted %d faults", kind, e.Faults())
		}
		if got := c.Metrics().CounterTotal("chaos.faults"); got != 1 {
			t.Fatalf("%v: chaos.faults = %d in the cluster metrics, want 1", kind, got)
		}
		if n := c.Metrics().Histogram("chaos.delivery_stall_ns", nil).Count(); n != 1 {
			t.Fatalf("%v: stall histogram holds %d observations, want 1", kind, n)
		}
		if !bytes.Contains(c.DumpObservables(), []byte("chaos.faults")) {
			t.Fatalf("%v: DumpObservables omits chaos.faults", kind)
		}
		c.Stop()
	}
}
