package nic

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sanft/internal/fault"
	"sanft/internal/metrics"
	"sanft/internal/sim"
)

// lossyStar runs all-to-all FT traffic on a 4-host star whose NICs share
// one registry and drop 5% of data frames before the wire, so the
// retransmission, out-of-order-drop and ack counters all move.
func lossyStar(t *testing.T) (*rig, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	r := newRig(t, 4, func(i int) Options {
		o := ftOpts(16, time.Millisecond)
		o.Dropper = fault.NewRateSeeded(0.05, int64(i+1))
		o.Metrics = reg
		return o
	})
	for _, src := range r.hosts {
		src := src
		r.k.Spawn(fmt.Sprintf("sender-%d", src), func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				for _, dst := range r.hosts {
					if dst != src {
						r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 512)))
					}
				}
			}
		})
	}
	r.runFor(time.Second)
	return r, reg
}

// The counters view and the metrics registry are one store: for every
// host and every event name, Counters().Get reads exactly the registry's
// nic.<name>{host=h} value, and String keeps the sorted name=value form.
func TestCountersMatchRegistry(t *testing.T) {
	r, reg := lossyStar(t)
	if r.nics[r.hosts[0]].Counters().Get("pkts-retransmitted") == 0 {
		t.Fatal("no retransmissions: the run does not exercise the lossy path")
	}
	for _, h := range r.hosts {
		c := r.nics[h].Counters()
		for _, name := range counterNames {
			want := reg.Counter("nic."+name, metrics.HostLabels(int(h))).Value()
			if got := c.Get(name); got != want {
				t.Errorf("host %d %s: Counters()=%d registry=%d", h, name, got, want)
			}
		}
		var parts []string
		for _, name := range c.Names() {
			parts = append(parts, fmt.Sprintf("%s=%d", name, c.Get(name)))
		}
		if got, want := c.String(), strings.Join(parts, " "); got != want {
			t.Errorf("host %d String() = %q, want %q", h, got, want)
		}
	}
	const want0 = "acks-received=120 acks-sent=120 err-injected-drops=9 pkts-accepted=120 " +
		"pkts-retransmitted=63 pkts-sent=294 retransmit-bursts=5 rx-dropped=53 rx-ooo-drops=53 " +
		"send-buffer-stall=104"
	if got := r.nics[r.hosts[0]].Counters().String(); got != want0 {
		t.Errorf("host 0 String() =\n%q\nwant\n%q", got, want0)
	}
}

// Untouched counters are neither listed nor registered.
func TestCountersBindOnFirstTouch(t *testing.T) {
	reg := metrics.NewRegistry()
	r := newRig(t, 2, func(int) Options { return Options{Metrics: reg} })
	n := r.nics[r.hosts[0]]
	if s := n.Counters().String(); s != "" {
		t.Fatalf("fresh NIC counters = %q, want empty", s)
	}
	if reg.CounterTotal("nic.pkts-sent") != 0 {
		t.Fatal("registry holds a count nothing recorded")
	}
	n.inc(ctrPktsDroppedUnreachable, 0)
	if got := n.Counters().Names(); len(got) != 1 || got[0] != "pkts-dropped-unreachable" {
		t.Fatalf("names after a zero-valued touch = %v", got)
	}
}

// A counted event is one integer add on a bound handle: no allocation
// once the counter has been touched.
func TestNICCountAllocs(t *testing.T) {
	r := newRig(t, 2, func(int) Options { return ftOpts(16, time.Millisecond) })
	n := r.nics[r.hosts[0]]
	n.inc(ctrPktsSent, 1)
	if a := testing.AllocsPerRun(1000, func() { n.inc(ctrPktsSent, 1) }); a != 0 {
		t.Fatalf("counted event allocates %v times, want 0", a)
	}
}
