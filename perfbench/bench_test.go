package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"sanft/internal/chaos"
)

// Two repetitions of one seed must read identical per-layer counts and
// simulated outputs: the counts are the benchmark's exact, machine-free
// numbers, so anything nondeterministic in them would make them useless
// as gates.
func TestCountsRepeatForOneSeed(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "scale" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var got [2]outcome
			for i := range got {
				s, err := runRep(w, 3, newTracer())
				if err != nil {
					t.Fatal(err)
				}
				got[i] = s.out
			}
			if got[0].counts != got[1].counts {
				t.Errorf("counts differ between two runs of seed 3:\n%+v\n%+v", got[0].counts, got[1].counts)
			}
			if got[0].digest != got[1].digest {
				t.Errorf("digests differ between two runs of seed 3: %s, %s", got[0].digest, got[1].digest)
			}
		})
	}
}

// Every metric the benchmark prints is declared in BENCHMARK.json with the
// same unit, and every declared metric and workload is one it runs.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		units := map[string]string{}
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		for _, p := range printed {
			u, ok := units[p.name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is printed but not in BENCHMARK.json", kind, p.name)
			case u != p.unit:
				t.Errorf("%s metric %s: printed unit %q, BENCHMARK.json unit %q", kind, p.name, p.unit, u)
			}
		}
		if len(declared) != len(printed) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(declared), kind, len(printed))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// The faults workload reaches each campaign through RunWithTraffic so a
// hook can mark the end of set-up; its injector starts the campaign's own
// default workload, which must leave the campaign exactly as Run runs it.
func TestFaultsInjectorLeavesCampaignUnchanged(t *testing.T) {
	camp, ok := chaos.Find("link-flap")
	if !ok {
		t.Fatal("link-flap campaign missing")
	}
	plain := camp.Run(5)
	hooked := camp.RunWithTraffic(5, nil, func(e *chaos.Engine, dflt chaos.Workload) *chaos.Run {
		return dflt.Start(e)
	})
	if plain.EventLog != hooked.EventLog || plain.Delivered != hooked.Delivered ||
		plain.MTTR != hooked.MTTR || plain.Remaps != hooked.Remaps {
		t.Errorf("injected default workload changed the campaign:\n%s\n%s", plain, hooked)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	base := tr.epoch
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.open("bench.rep", at(0))
	tr.interval("core.New", at(1), at(4))
	run := tr.open("core.Cluster.RunFor", at(5))
	tr.interval("chaos.CheckInvariants", at(6), at(8))
	tr.close(run, at(15))
	tr.close(root, at(20))
	got := tr.selfTimes()
	want := map[string]time.Duration{
		"bench": 7 * time.Millisecond,  // 20 - 3 - 10
		"core":  11 * time.Millisecond, // 3 + (10 - 2)
		"chaos": 2 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if tr.spans[2].Parent != root || tr.spans[3].Parent != run {
		t.Errorf("parents not recorded: %+v", tr.spans)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.375, 25}, {1, 50},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if xs[0] != 40 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}
