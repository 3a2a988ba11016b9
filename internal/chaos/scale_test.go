package chaos

import (
	"bytes"
	"strings"
	"testing"

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

// A small scale campaign runs every scenario to a passing exactly-once
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
		if rep.Shards != 4 || (sc != "none" && rep.Faults == 0) {
			t.Fatalf("%s: %d shards, %d faults", sc, rep.Shards, rep.Faults)
		}
		if !strings.Contains(rep.String(), "PASS") {
			t.Fatalf("%s: report %q", sc, rep)
		}
		if !bytes.Equal(rep.Dump(), run(2).Dump()) {
			t.Fatalf("%s: workers=2 dump differs", sc)
		}
	}
	if _, err := RunScale(ScaleOpts{Topo: "fattree:4", Scenario: "meteor"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
