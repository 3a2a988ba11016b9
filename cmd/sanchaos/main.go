// Command sanchaos runs seed-driven chaos campaigns against the simulated
// platform and prints a degradation report per campaign: faults injected,
// delivery outcome, remap pacing, delivery-stall (MTTR) statistics, and
// any violated invariants. Same seed, same campaign → byte-identical
// event log.
//
// Every campaign runs with a flight recorder attached: when an invariant
// check fails, the recorder's fault-triggered snapshots (the trace events
// leading up to each anomaly and to the violation itself) are dumped with
// the report, so a failing campaign ships its own post-mortem.
//
// Usage:
//
//	sanchaos                          # run every campaign
//	sanchaos -campaign partition-heal # run one campaign
//	sanchaos -seed 42 -events         # different schedule, print event log
//	sanchaos -reps 16 -workers 4      # 16 seeds per campaign, 4 OS threads
//	sanchaos -liveness                # baseline vs liveness variant, side by side
//	sanchaos -list                    # list campaigns
//
// Scale tier — thousand-host datacenter fabrics on a multi-cell plan:
//
//	sanchaos -topo fattree:8 -scenario flapstorm   # correlated flap burst, full invariant audit
//	sanchaos -topo fattree:16 -scenario flapstorm  # same at 1024 hosts
//	sanchaos -topo dragonfly:4,4,4 -scenario gray  # lossy-but-up trunks
//	sanchaos -scenario stalemap                    # the stale-map divergence campaign
//
// -topo takes a topology spec (fattree:K, dragonfly:A,P,H,
// torus:HP,D1,D2,...). flapstorm and gray run chaos.RunScale on the
// parallel engine — -workers then sets the engine's OS-thread count, and
// results are byte-identical for any value; each report adds an engine
// line (hosts, cells, workers, epochs, boundary crossings, events).
// stalemap is shorthand for -campaign stale-map (-topo is ignored).
//
// -liveness runs every selected campaign twice — once under the paper's
// fixed-timer baseline and once with per-path liveness sessions plus
// RTT-adaptive retransmission — and reports both, so the mttr_p50/mttr_p99
// columns (also present in -json output) compare detection+recovery time
// directly.
//
// -reps runs each campaign under reps consecutive seeds (seed..seed+reps-1);
// -workers drives the (campaign, seed) grid through the parallel campaign
// pool (internal/parsim). Every replica is an independent deterministic
// simulation; reports are gathered by grid index and printed in campaign,
// then seed, order — identical output for any worker count.
//
// Exit status is nonzero if any campaign violates an invariant.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/enginestat"
	"sanft/internal/metrics"
	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/trace"
)

func main() {
	campaign := flag.String("campaign", "all", "campaign name, or \"all\"")
	seed := flag.Int64("seed", 1, "campaign seed (drives fault schedule and traffic)")
	reps := flag.Int("reps", 1, "replicas per campaign: seeds seed..seed+reps-1")
	workers := flag.Int("workers", 1, "campaign pool workers (0 = GOMAXPROCS)")
	liveness := flag.Bool("liveness", false,
		"run each campaign under both the baseline and the liveness/adaptive variant")
	events := flag.Bool("events", false, "print the full event log per campaign")
	asJSON := flag.Bool("json", false, "emit one JSON object per campaign instead of text")
	list := flag.Bool("list", false, "list available campaigns and exit")
	topo := flag.String("topo", "fattree:8",
		"scale-run topology spec: fattree:K | dragonfly:A,P,H | torus:HP,D1,D2,...")
	scenario := flag.String("scenario", "",
		"scale scenario: flapstorm | gray (multi-cell, on -topo) | stalemap (the stale-map campaign)")
	flows := flag.Int("flows", 0, "scale-run flow count (0 = one per host)")
	httpAddr := flag.String("http", "",
		"serve live telemetry on this address during the grid: Prometheus /metrics (cumulative across finished runs), /progress, /debug/pprof")
	httpHold := flag.Duration("http-hold", 0,
		"with -http: keep the telemetry server up this long after the grid finishes (final scrape window)")
	flag.Parse()

	all := chaos.Campaigns()
	if *list {
		for _, c := range all {
			fmt.Printf("%-16s %s\n", c.Name, c.About)
		}
		return
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *reps < 1 {
		*reps = 1
	}
	if *scenario == "stalemap" {
		*campaign, *scenario = "stale-map", ""
	}

	// One campaign list per protocol variant. With -liveness the grid holds
	// the baseline and the liveness build of every selected campaign,
	// interleaved per campaign so the two reports print adjacent.
	variants := []chaos.Variant{chaos.Baseline()}
	if *liveness {
		variants = append(variants, chaos.AdaptiveLiveness())
	}
	var todo []chaos.Campaign
	if *campaign == "all" {
		for i := range all {
			for _, v := range variants {
				c, _ := chaos.FindWith(all[i].Name, v)
				todo = append(todo, c)
			}
		}
	} else {
		for _, v := range variants {
			c, ok := chaos.FindWith(*campaign, v)
			if !ok {
				fmt.Fprintf(os.Stderr, "sanchaos: unknown campaign %q (try -list)\n", *campaign)
				os.Exit(2)
			}
			todo = append(todo, c)
		}
	}

	// The job grid, in output order: (campaign, seed) replicas, or the
	// scale runs. The pool may execute it in any order; results are
	// gathered by index so printing below is deterministic.
	var jobs []func() result
	pool := parsim.Pool{Workers: *workers}
	if *scenario != "" {
		// Scale runs parallelize inside the engine: -workers drives its
		// threads, and the runs themselves go one at a time.
		pool.Workers = 1
		for r := 0; r < *reps; r++ {
			o := chaos.ScaleOpts{Topo: *topo, Scenario: *scenario, Seed: *seed + int64(r),
				Workers: *workers, Flows: *flows}
			jobs = append(jobs, func() result {
				rep, err := chaos.RunScale(o)
				if err != nil {
					return result{err: err}
				}
				return result{rep: rep.Report, c: rep.C}
			})
		}
	} else {
		for _, c := range todo {
			for r := 0; r < *reps; r++ {
				c, seed := c, *seed+int64(r)
				jobs = append(jobs, func() result {
					var cl *core.Cluster
					rep := c.RunInstrumented(seed, func(c *core.Cluster) {
						cl = c
						c.InstallTracer(trace.NewFlightRecorder(8192))
					})
					return result{rep: rep, c: cl}
				})
			}
		}
	}

	// Live telemetry (-http): campaign clusters are built and torn down per
	// job, so /metrics serves a cumulative registry — each finished run's
	// metrics merge into it (on the worker goroutine, while that cluster is
	// quiescent) and the merged Prometheus render is republished. /progress
	// tracks the grid through the pool's Progress hook.
	var srv *enginestat.Server
	var agg *metrics.Observer
	var aggMu sync.Mutex
	if *httpAddr != "" {
		var err error
		srv, err = enginestat.NewServer(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sanchaos: telemetry listen on %s: %v\n", *httpAddr, err)
			os.Exit(1)
		}
		agg = metrics.NewObserver(metrics.Config{})
		prog := &parsim.Progress{}
		prog.Begin(len(jobs))
		pool.Progress = prog
		srv.SetProgress(prog.Snapshot)
		fmt.Fprintf(os.Stderr, "sanchaos: telemetry on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr())
	}

	start := time.Now()
	results := parsim.Map(pool, len(jobs), func(i int) result {
		res := jobs[i]()
		if srv != nil && res.c != nil {
			publishMerged(srv, agg, &aggMu, res.c)
		}
		return res
	})

	failed := 0
	for _, res := range results {
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "sanchaos: %v\n", res.err)
			os.Exit(2)
		}
		rep, c := res.rep, res.c
		if err := report.Write(os.Stdout, rep, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if c.Shards() > 1 && !*asJSON {
			fmt.Printf("  engine:           %d hosts, %d cells, %d workers, %d epochs, %d boundary crossings, %d events executed\n",
				len(c.Hosts), c.Shards(), c.Workers(), c.Epochs(), c.Exchanged(), c.TotalExecuted())
		}
		if *events && !*asJSON {
			fmt.Println("  event log:")
			fmt.Println(indent(rep.EventLog))
		}
		if !rep.Passed() {
			failed++
			if rep.FlightDump != "" && !*asJSON {
				fmt.Println("  flight recorder (post-mortem):")
				fmt.Println(indent(rep.FlightDump))
			}
		}
		if !*asJSON {
			fmt.Println()
		}
	}
	if !*asJSON {
		fmt.Printf("%d/%d campaign runs passed (%d workers, %v wall time)\n",
			len(jobs)-failed, len(jobs), *workers, time.Since(start).Round(time.Millisecond))
	}
	if srv != nil {
		if *httpHold > 0 {
			fmt.Fprintf(os.Stderr, "sanchaos: holding telemetry server %v for a final scrape\n", *httpHold)
			time.Sleep(*httpHold)
		}
		srv.Close()
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// result is one job's outcome: its report and the cluster it ran on, or
// the error that kept a scale run from starting.
type result struct {
	rep *chaos.Report
	c   *core.Cluster
	err error
}

// publishMerged folds one finished (quiescent) campaign cluster's metrics
// into the cumulative registry and republishes the Prometheus render. The
// mutex serializes pool workers; HTTP handlers only ever see the published
// snapshot, never the registry itself.
func publishMerged(srv *enginestat.Server, agg *metrics.Observer, mu *sync.Mutex, cl *core.Cluster) {
	mu.Lock()
	defer mu.Unlock()
	agg.Registry().MergeFrom(cl.MergedObserver().Registry())
	var buf bytes.Buffer
	if err := agg.WritePrometheus(&buf); err == nil {
		srv.PublishMetrics(buf.Bytes())
	}
}

func indent(s string) string {
	out := "    "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "    "
		}
	}
	return out
}
