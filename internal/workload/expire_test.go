package workload

import (
	"strings"
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/report"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// With mapping off, a partition that cuts both servers off leaves
// retransmission nothing to route around: every operation whose deadline
// falls inside the partition expires, so a whole SLO window reports an
// error rate of 1 — and once the links heal, retransmission drains the
// backlog and the windows run clean again.
func TestPartitionExpiresOpsAndRecovers(t *testing.T) {
	ft := topology.FatTree(4)
	hosts := []topology.NodeID{
		ft.PodHosts[0][0], ft.PodHosts[1][0], ft.PodHosts[2][0],
		ft.PodHosts[3][0], ft.PodHosts[0][1], ft.PodHosts[1][1],
	}
	c := core.New(core.Config{
		Net: ft.Net, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize: 16,
			Interval:  time.Millisecond,
			// No mapper: keep the permanent-failure verdict out of the run
			// so retransmission alone rides the partition out.
			PermFailThreshold: time.Second,
		},
		Seed: 3,
	})
	e := chaos.NewEngine(c, 3)
	servers, clients := hosts[:2], hosts[2:]
	const window = 10 * time.Millisecond
	spec := Spec{
		Proto: ProtoRPC, Mode: ModeOpen, Seed: 3,
		Clients: 4, Ops: 600, Rate: 5000,
		Timeout: 5 * time.Millisecond,
		SLO:     report.SLO{Latency: time.Millisecond, Window: window},
	}
	d := Attach(e, spec, clients, servers)
	for _, s := range servers {
		e.Install(chaos.LinkFlap{Link: ft.Net.Node(s).Ports[0], Start: 20 * time.Millisecond,
			Down: 30 * time.Millisecond, Up: time.Second, Cycles: 1})
	}
	const span = 120 * time.Millisecond
	c.RunFor(span)
	c.Stop()
	res := d.Result("fattree:4", "partition", span)

	rate := func(w report.SLOWindow) float64 {
		if n := w.Completed + w.Errors; n > 0 {
			return float64(w.Errors) / float64(n)
		}
		return 0
	}
	if len(res.Windows) < 10 {
		t.Fatalf("only %d windows", len(res.Windows))
	}
	if w := res.Windows[1]; w.Errors != 0 || w.Completed == 0 {
		t.Fatalf("window 1 before the partition: %+v", w)
	}
	// Window 3 holds the deadlines 30–40ms: operations issued 25–35ms,
	// wholly inside the 20–50ms partition.
	if w := res.Windows[3]; w.Errors == 0 || rate(w) != 1 {
		t.Fatalf("window 3 inside the partition: %+v (error rate %.2f, want 1)", w, rate(w))
	}
	for i := 7; i < len(res.Windows)-1; i++ {
		if w := res.Windows[i]; w.Errors != 0 || w.Completed == 0 {
			t.Fatalf("window %d after the heal: %+v", i, w)
		}
	}
	if d.Spurious() == 0 {
		t.Fatal("no late completions: the backlog never drained after the heal")
	}
}

// The CLI names round-trip through the parsers, case-insensitively, and
// unknown names are rejected.
func TestParseProtoAndMode(t *testing.T) {
	for _, p := range []Proto{ProtoRPC, ProtoKV, ProtoStream} {
		if got, err := ParseProto(strings.ToUpper(p.String())); err != nil || got != p {
			t.Fatalf("ParseProto(%q) = %v, %v", p, got, err)
		}
	}
	for _, m := range []Mode{ModeOpen, ModeClosed} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseProto("smtp"); err == nil {
		t.Fatal("ParseProto accepted an unknown name")
	}
	if _, err := ParseMode("lazy"); err == nil {
		t.Fatal("ParseMode accepted an unknown name")
	}
}
