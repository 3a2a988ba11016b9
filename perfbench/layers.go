package main

import (
	"runtime"
	"sort"
	"time"

	"sanft/internal/core"
	"sanft/internal/fabric"
	"sanft/internal/mapping"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Layer rows call one layer's public functions directly, in the shapes of
// the Benchmark functions in internal/sim, internal/retrans and
// internal/mapping, and report host ns and heap allocations per call.
// Each row is timed three times and the median kept.

// layerCost is the per-call cost of one layer row.
type layerCost struct {
	ns, allocs float64
}

// timeCalls runs body, which performs calls calls, and returns the cost
// per call.
func timeCalls(calls int, body func()) layerCost {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	body()
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return layerCost{
		ns:     float64(dt.Nanoseconds()) / float64(calls),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(calls),
	}
}

// median3 runs a row three times and keeps the median ns (with that
// sample's allocation count).
func median3(row func() layerCost) layerCost {
	cs := []layerCost{row(), row(), row()}
	sort.Slice(cs, func(i, j int) bool { return cs[i].ns < cs[j].ns })
	return cs[1]
}

// simEvent: one kernel event that schedules the next.
func simEvent() layerCost {
	const n = 1_000_000
	k := sim.New(1)
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired < n {
			k.After(time.Microsecond, fn)
		}
	}
	k.After(time.Microsecond, fn)
	return timeCalls(n, func() { k.Run() })
}

// simProcSwitch: one Proc sleep, a switch into the kernel and back.
func simProcSwitch() layerCost {
	const n = 100_000
	k := sim.New(1)
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return timeCalls(n, func() { k.Run() })
}

// simResourceJob: one FIFO-server job whose completion submits the next.
func simResourceJob() layerCost {
	const n = 300_000
	k := sim.New(1)
	r := sim.NewResource(k, "cpu")
	done := 0
	var submit func()
	submit = func() {
		done++
		if done < n {
			r.Submit(time.Microsecond, submit)
		}
	}
	r.Submit(time.Microsecond, submit)
	return timeCalls(n, func() { k.Run() })
}

// retransSender: one prepare → transmit → receive → ack cycle.
func retransSender() layerCost {
	const n = 300_000
	s := retrans.NewSender(retrans.Config{QueueSize: 32})
	r := retrans.NewReceiver(retrans.Config{})
	dst := topology.NodeID(1)
	now := sim.Time(0)
	return timeCalls(n, func() {
		for i := 0; i < n; i++ {
			now = now.Add(time.Microsecond)
			e := s.Prepare(dst, now, 32-s.Unacked(dst), nil, 4096)
			s.AckRequestFor(e, 32-s.Unacked(dst))
			s.OnTransmitted(e, now)
			if v := r.OnData(dst, e.Gen, e.Seq, 0); !v.Accept {
				panic("perfbench: retrans receiver rejected an in-order packet")
			}
			gen, seq, _ := r.CumAck(dst)
			r.AckEmitted(dst)
			s.OnAck(dst, gen, seq, now)
		}
	})
}

// fabricHop: 4 KB packets injected one at a time across a four-switch
// chain; the cost is per switch crossed.
func fabricHop() layerCost {
	const n = 30_000
	nw, rows := topology.Chain(4, 1, 1)
	src, dst := rows[0][0], rows[3][0]
	route, err := routing.Shortest(nw, src, dst)
	if err != nil {
		panic(err)
	}
	k := sim.New(1)
	f := fabric.New(k, nw, fabric.DefaultConfig())
	delivered := 0
	f.AttachHost(dst, func(*fabric.Packet) { delivered++ })
	f.AttachHost(src, func(*fabric.Packet) {})
	c := timeCalls(n*len(route), func() {
		for i := 0; i < n; i++ {
			f.Inject(src, &fabric.Packet{Route: route, Dst: dst, Size: 4096})
			k.Run()
		}
	})
	if delivered != n {
		panic("perfbench: fabric row lost packets")
	}
	return c
}

// routingShortestFrom: one single-source route computation on fattree:16.
func routingShortestFrom(nw *topology.Network, hosts []topology.NodeID) layerCost {
	const n = 64
	stride := len(hosts) / n
	return timeCalls(n, func() {
		for i := 0; i < n; i++ {
			if len(routing.ShortestFrom(nw, hosts[i*stride])) != len(hosts)-1 {
				panic("perfbench: ShortestFrom missed hosts")
			}
		}
	})
}

// mappingProbe: a full map from one host of fattree:8, per probe sent.
func mappingProbe() layerCost {
	b, err := topology.ParseSpec("fattree:8")
	if err != nil {
		panic(err)
	}
	c := core.New(core.Config{
		Net: b.Net, Hosts: b.Hosts, FT: true,
		Mapper:    true,
		MapperCfg: mapping.Config{MaxRadix: maxSwitchRadix(b.Net)},
		Seed:      1,
	})
	m := c.Mapper(b.Hosts[0])
	var mp *mapping.Map
	var st mapping.Stats
	done := false
	c.K.Spawn("mapper", func(p *sim.Proc) {
		mp, st = m.FullMap(p)
		done = true
	})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	// One simulated second at a time: idle retransmission timers on every
	// NIC would otherwise keep the kernel busy long after the map is done.
	for i := 0; i < 600 && !done; i++ {
		c.K.RunFor(time.Second)
	}
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c.Stop()
	if !done || mp == nil || st.Total() == 0 {
		panic("perfbench: full map did not finish")
	}
	for _, h := range b.Hosts[1:] {
		if _, _, ok := mp.RouteTo(h); !ok {
			panic("perfbench: full map missed a host")
		}
	}
	return layerCost{
		ns:     float64(dt.Nanoseconds()) / float64(st.Total()),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(st.Total()),
	}
}

// layerRows runs every row and returns its ns and allocs metrics.
func layerRows() map[string]float64 {
	ft, err := topology.ParseSpec("fattree:16")
	if err != nil {
		panic(err)
	}
	rows := []struct {
		name string
		row  func() layerCost
	}{
		{"sim.event", simEvent},
		{"sim.proc_switch", simProcSwitch},
		{"sim.resource_job", simResourceJob},
		{"retrans.sender", retransSender},
		{"fabric.hop", fabricHop},
		{"routing.shortest_from", func() layerCost { return routingShortestFrom(ft.Net, ft.Hosts) }},
		{"mapping.probe", mappingProbe},
	}
	out := make(map[string]float64)
	for _, r := range rows {
		c := median3(r.row)
		out[r.name+"_ns"] = c.ns
		out[r.name+"_allocs"] = c.allocs
	}
	return out
}
