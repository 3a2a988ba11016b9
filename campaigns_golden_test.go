package sanft

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/report"
	"sanft/internal/workload"
)

// TestCampaignsGolden pins what the campaign runner produces: every
// baseline campaign's report and event log at seed 1, and the sanload
// JSON of one small grid cell (fattree:4, kv/closed, linkflap — the
// `sanload -topos fattree:4 -protos kv -modes closed -faults linkflap
// -json` output). Any change to how campaigns are built, run, audited or
// reported that alters behaviour shows up here.
// Regenerate with: go test -run TestCampaignsGolden -update .
func TestCampaignsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, camp := range chaos.Campaigns() {
		rep := camp.Run(1)
		fmt.Fprintf(&b, "=== %s\n%s--- event log\n%s\n", camp.Name, rep, rep.EventLog)
	}

	g, err := workload.RunGrid(workload.GridOpts{
		Topos: []string{"fattree:4"},
		Specs: []workload.Spec{{
			Proto: workload.ProtoKV, Mode: workload.ModeClosed,
			Clients: 8, Ops: 400, Rate: 20000, Think: 2 * time.Millisecond,
			Pipeline: 1, ValBytes: 256, Chunks: 4, Timeout: 250 * time.Millisecond,
			SLO: report.SLO{Latency: time.Millisecond, Window: 50 * time.Millisecond},
		}},
		Faults: []string{"linkflap"},
		Seed:   1,
		Dur:    500 * time.Millisecond,
		Hosts:  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Violations) > 0 {
		t.Fatalf("grid cell violates invariants: %v", g.Violations)
	}
	b.WriteString("=== sanload fattree:4 kv/closed linkflap\n")
	slo := report.NewSLOTable("Production workloads: per-scenario SLO outcomes", g.Results)
	if err := report.Write(&b, slo, true); err != nil {
		t.Fatal(err)
	}

	got := b.String()
	golden := filepath.Join("testdata", "campaigns-seed1.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		d := firstDiffLine([]byte(want), []byte(got))
		t.Fatalf("campaign output drifted from %s at line %d:\n  want: %s\n  got:  %s",
			golden, d.n, d.a, d.b)
	}
}
