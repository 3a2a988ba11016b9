// Command perfbench is the simulator's benchmark. It runs one workload
// (stream, kv, faults or scale; see README.md) for a fixed host-time budget,
// checks every repetition's simulated outputs, and prints host-time
// metrics by name with their units. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is a separate traced run that reports the per-layer metrics, writes
// its spans, and states its own overhead. Any audit failure or digest
// mismatch exits nonzero without printing a result.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kv --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// minReps is the fewest timed repetitions a run makes, however long they
// take; medians of fewer would not be medians.
const minReps = 3

// minPairs is the fewest untraced/traced pairs a traced run makes.
const minPairs = 2

type metricDef struct{ name, unit string }

// endToEnd and perLayer are every metric the benchmark prints, in order.
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"audit.lost_frac", "ratio"},
	{"sim.events_per_op", "count"},
	{"sim.cancelled_frac", "ratio"},
	{"sim.arena_high_water", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.event_ns", "ns"},
	{"sim.event_allocs", "count"},
	{"sim.proc_switch_ns", "ns"},
	{"sim.proc_switch_allocs", "count"},
	{"sim.resource_job_ns", "ns"},
	{"sim.resource_job_allocs", "count"},
	{"fabric.pkts_per_op", "count"},
	{"fabric.drop_frac", "ratio"},
	{"fabric.block_ns_per_pkt", "ns"},
	{"fabric.hop_ns", "ns"},
	{"fabric.hop_allocs", "count"},
	{"nic.pkts_sent_per_op", "count"},
	{"nic.acks_sent_per_op", "count"},
	{"nic.piggyback_frac", "ratio"},
	{"nic.send_stalls_per_op", "count"},
	{"retrans.retransmitted_per_op", "count"},
	{"retrans.useful_frac", "ratio"},
	{"retrans.sender_ns", "ns"},
	{"retrans.sender_allocs", "count"},
	{"mapping.host_probes_per_op", "count"},
	{"mapping.switch_probes_per_op", "count"},
	{"mapping.probe_ns", "ns"},
	{"mapping.probe_allocs", "count"},
	{"core.remap_attempts", "count"},
	{"core.remap_success_frac", "ratio"},
	{"topology.build_s", "s"},
	{"routing.shortest_from_ns", "ns"},
	{"routing.shortest_from_allocs", "count"},
	{"core.new_s", "s"},
	{"parsim.epochs_per_op", "count"},
	{"parsim.exchanged_per_op", "count"},
	{"parsim.busy_frac", "ratio"},
	{"parsim.stall_frac", "ratio"},
	{"parsim.exchange_frac", "ratio"},
	{"parsim.pool_hit_frac", "ratio"},
	{"workload.attach_s", "s"},
	{"workload.spurious", "count"},
	{"chaos.audit_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.self_s.bench", "s"},
	{"trace.self_s.chaos", "s"},
	{"trace.self_s.core", "s"},
	{"trace.self_s.microbench", "s"},
	{"trace.self_s.topology", "s"},
	{"trace.self_s.workload", "s"},
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// sample is one repetition: set-up, then the timed region, then the audit.
type sample struct {
	setup, run     time.Duration
	mallocs, bytes uint64
	heap           uint64
	gcCycles       uint32
	gcCPU, cpu     float64 // CPU seconds over the timed region
	out            outcome
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// runRep builds one repetition, runs its timed region and audits it. The
// heap is collected before set-up and again before the timed region, so
// neither measurement pays for the previous phase's garbage.
func runRep(w workloadDef, seed int64, tr *tracer) (sample, error) {
	var s sample
	var m0, m1 runtime.MemStats
	runtime.GC()
	t0 := time.Now()
	inst := w.build(seed, tr)
	s.setup = time.Since(t0)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s.heap = m0.HeapAlloc
	gc0, cpu0 := readCPU()
	t1 := time.Now()
	b := inst.run()
	dt := time.Since(t1)
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := readCPU()
	s.setup += b.setup
	s.run = dt - b.setup - b.gap
	s.mallocs = m1.Mallocs - m0.Mallocs - b.setupMallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc - b.setupBytes
	if b.heap > 0 {
		s.heap = b.heap
	}
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcCPU, s.cpu = gc1-gc0, cpu1-cpu0
	s.out = inst.audit()
	if s.out.err != nil {
		return s, fmt.Errorf("%s seed %d: audit failed: %w", w.name, seed, s.out.err)
	}
	if s.out.Ops == 0 {
		return s, fmt.Errorf("%s seed %d: no ops completed", w.name, seed)
	}
	return s, nil
}

// checkDigest compares repetition 0's simulated outputs with the value
// recorded for the default seed. Other seeds are checked by the audit only.
func checkDigest(name string, seed int64, got string) error {
	if seed != defaultSeed {
		return nil
	}
	if want := recordedDigests[name]; got != want {
		return fmt.Errorf("%s seed %d: simulated outputs changed: digest %s, recorded %s", name, seed, got, want)
	}
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure is the untraced run: one warm-up repetition (audited and
// digest-checked), then timed repetitions of the same inputs until their
// timed regions add up to the budget. Set-up time and heap are medians over
// the repetitions. Throughput is the first quartile of the repetitions'
// rates: a shared host runs allocation-heavy code at two speeds, its usual
// one and bursts of a few seconds up to 1.7 times as fast, and the first
// quartile stays on the usual speed however many bursts a run happens to
// catch.
func measure(w workloadDef, seed int64, budget time.Duration) (result, error) {
	warm, err := runRep(w, seed, nil)
	if err != nil {
		return result{}, err
	}
	if err := checkDigest(w.name, seed, warm.out.digest); err != nil {
		return result{}, err
	}
	var ss []sample
	var timed time.Duration
	for i := 1; len(ss) < minReps || timed < budget; i++ {
		s, err := runRep(w, seed, nil)
		if err != nil {
			return result{}, err
		}
		if s.out.digest != warm.out.digest {
			return result{}, fmt.Errorf("%s seed %d: repetition %d's simulated outputs differ from the first", w.name, seed, i)
		}
		ss = append(ss, s)
		timed += s.run
	}
	var rates, setups, heaps []float64
	var ops, mallocs, bytes float64
	res := result{Correct: true, Metrics: map[string]metricVal{}}
	for _, s := range ss {
		rates = append(rates, float64(s.out.Ops)/s.run.Seconds())
		setups = append(setups, s.setup.Seconds())
		heaps = append(heaps, float64(s.heap)/1e6)
		ops += float64(s.out.Ops)
		mallocs += float64(s.mallocs)
		bytes += float64(s.bytes)
		res.Attempted += s.out.Attempted
		res.Failed += s.out.failed()
	}
	set := setter(res.Metrics, endToEnd)
	set("ops_per_s", quantile(rates, 0.25))
	set("setup_s", median(setups))
	set("allocs_per_op", mallocs/ops)
	set("alloc_bytes_per_op", bytes/ops)
	set("heap_mb", median(heaps))
	return res, complete(res.Metrics, endToEnd)
}

// traced is the traced run: the layer rows, then pairs of repetitions on
// the same seed, one untraced and one traced, until the budget is spent.
// Counts come from the traced repetition at the given seed; host-time
// ratios come from the untraced ones; the overhead compares the two.
func traced(w workloadDef, seed int64, budget time.Duration) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricVal{}}
	set := setter(res.Metrics, perLayer)
	rows := layerRows()
	for name, v := range rows {
		set(name, v)
	}
	if _, err := runRep(w, seed, nil); err != nil { // warm-up
		return result{}, err
	}

	tr := newTracer()
	var us, ts []sample
	deadline := time.Now().Add(budget)
	for i := 0; len(ts) < minPairs || time.Now().Before(deadline); i++ {
		u, err := runRep(w, seed, nil)
		if err != nil {
			return result{}, err
		}
		tr.run = fmt.Sprintf("%s/seed%d/rep%d", w.name, seed, i)
		var t sample
		tr.do("bench.rep", func() { t, err = runRep(w, seed, tr) })
		if err != nil {
			return result{}, err
		}
		if t.out.digest != u.out.digest {
			return result{}, fmt.Errorf("%s seed %d: tracing changed the simulated outputs", w.name, seed)
		}
		if i == 0 {
			if err := checkDigest(w.name, seed, t.out.digest); err != nil {
				return result{}, err
			}
		}
		us, ts = append(us, u), append(ts, t)
		res.Attempted += u.out.Attempted + t.out.Attempted
		res.Failed += u.out.failed() + t.out.failed()
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)

	c := ts[0].out.counts
	ops := float64(c.Ops)
	set("audit.lost_frac", ratio(float64(c.Lost), float64(c.Attempted)))
	set("sim.events_per_op", float64(c.Events)/ops)
	set("sim.cancelled_frac", ratio(float64(c.Cancelled), float64(c.Scheduled)))
	set("sim.arena_high_water", float64(c.ArenaHighWater))
	set("fabric.pkts_per_op", float64(c.FabInjected)/ops)
	set("fabric.drop_frac", ratio(float64(c.FabDropped), float64(c.FabInjected)))
	set("fabric.block_ns_per_pkt", ratio(float64(c.BlockNS), float64(c.FabInjected)))
	set("nic.pkts_sent_per_op", float64(c.Sent)/ops)
	set("nic.acks_sent_per_op", float64(c.AcksSent)/ops)
	set("nic.piggyback_frac", ratio(float64(c.AcksPiggybacked), float64(c.AcksPiggybacked+c.AcksSent)))
	set("nic.send_stalls_per_op", float64(c.SendStalls)/ops)
	set("retrans.retransmitted_per_op", float64(c.Retransmitted)/ops)
	// A retransmission is wasted when the receiver already had the packet.
	set("retrans.useful_frac", ratio(float64(c.Retransmitted)-float64(c.DupDrops), float64(c.Retransmitted)))
	set("mapping.host_probes_per_op", float64(c.HostProbes)/ops)
	set("mapping.switch_probes_per_op", float64(c.SwitchProbes)/ops)
	set("core.remap_attempts", float64(c.RemapAttempts))
	set("core.remap_success_frac", ratio(float64(c.RemapSuccesses), float64(c.RemapAttempts)))
	set("parsim.epochs_per_op", float64(c.Epochs)/ops)
	set("parsim.exchanged_per_op", float64(c.Exchanged)/ops)
	var split engineSplit
	if e := ts[0].out.engine; e != nil {
		split = *e
	}
	set("parsim.busy_frac", split.busy)
	set("parsim.stall_frac", split.stall)
	set("parsim.exchange_frac", split.exchange)
	set("parsim.pool_hit_frac", split.poolHit)
	set("workload.spurious", float64(c.Spurious))

	n := float64(len(ts))
	set("topology.build_s", (tr.total("topology.ParseSpec")+tr.total("topology.Star")).Seconds()/n)
	set("core.new_s", tr.total("core.New").Seconds()/n)
	set("workload.attach_s", tr.total("workload.Attach").Seconds()/n)
	set("chaos.audit_s", tr.total("chaos.CheckInvariants").Seconds()/n)

	var runNS, tracedNS, events, gcCPU, cpu, cycles float64
	for i := range us {
		runNS += float64(us[i].run.Nanoseconds())
		tracedNS += float64(ts[i].run.Nanoseconds())
		events += float64(us[i].out.Events)
		gcCPU += us[i].gcCPU
		cpu += us[i].cpu
		cycles += float64(us[i].gcCycles)
	}
	set("sim.ns_per_event", runNS/events)
	set("runtime.gc_cpu_frac", ratio(gcCPU, cpu))
	set("runtime.gc_cycles", cycles/float64(len(us)))
	// Both sides simulate identical inputs, so the time ratio is the rate ratio.
	set("trace.overhead_frac", tracedNS/runNS-1)
	set("trace.spans", float64(len(tr.spans)))
	self := tr.selfTimes()
	for _, d := range perLayer {
		if layer, ok := strings.CutPrefix(d.name, "trace.self_s."); ok {
			set(d.name, self[layer].Seconds()/n)
		}
	}
	for layer := range self {
		if _, ok := res.Metrics["trace.self_s."+layer]; !ok {
			return result{}, fmt.Errorf("span layer %q has no trace.self_s metric", layer)
		}
	}
	return res, complete(res.Metrics, perLayer)
}

// setter returns a function that stores one named metric with the unit
// its definition gives. Naming a metric that is not defined is a bug.
func setter(into map[string]metricVal, defs []metricDef) func(string, float64) {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	return func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("perfbench: undefined metric " + name)
		}
		into[name] = metricVal{Value: v, Unit: u}
	}
}

// complete checks that every defined metric was set to a finite value.
func complete(ms map[string]metricVal, defs []metricDef) error {
	for _, d := range defs {
		m, ok := ms[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	return nil
}

func printResult(name string, res result, defs []metricDef) error {
	fmt.Printf("%s: %d ops attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-30s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: stream, kv, faults or scale")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "host seconds of timed repetitions")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload stream|kv|faults|scale --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(w.procs)
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		res, err = traced(w, *seed, budget)
	} else {
		res, err = measure(w, *seed, budget)
	}
	if err == nil {
		err = printResult(w.name, res, defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
