// Command micsched runs the online multi-tenant scheduler over a
// synthetic mixed-tenant scenario and prints per-tenant accounting:
// throughput, latency percentiles, mean slowdown, and Jain's fairness
// indices.
//
// Usage:
//
//	micsched -policy=sjf -pattern=severe
//	micsched -policy=fifo -pattern=balanced -arrival=heavytail -seed=7
//	micsched -partitions=8 -streams=2 -scale=2 -window=30ms
//	micsched -explain=7 -policy=adaptive -pattern=severe
//
// Policies: fifo (arrival order, pack lowest stream), rr (arrival
// order, rotate across partitions), sjf (shortest job first,
// least-loaded placement), adaptive (model-predicted per-tenant
// stream shares, re-planned when the mix drifts). Patterns set the
// per-tenant offered load:
// balanced 20/20/20/20 through severe 5/10/40/80 jobs. Every run is a
// pure function of its flags — repeat a command and the virtual-time
// schedule is bit-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"micstream"
)

func main() {
	var (
		policy     = flag.String("policy", "fifo", "scheduling policy: fifo, rr, sjf, adaptive")
		pattern    = flag.String("pattern", "balanced", "load-imbalance pattern: balanced, mild, moderate, severe")
		arrival    = flag.String("arrival", "bursty", "arrival process: poisson, bursty, heavytail, diurnal, correlated")
		seed       = flag.Uint64("seed", 1, "scenario seed")
		scale      = flag.Int("scale", 1, "multiplier on per-tenant job counts")
		partitions = flag.Int("partitions", 4, "device partitions")
		streams    = flag.Int("streams", 2, "streams per partition")
		window     = flag.Duration("window", 20*time.Millisecond, "arrival window (virtual time)")
		jobs       = flag.Bool("jobs", false, "also print every job's lifecycle")
		explain    = flag.Int("explain", -1, "print the causal timeline for this job index plus where-time-goes tables (-1 disables)")
		list       = flag.Bool("list", false, "list policies and patterns")
	)
	flag.Parse()

	if *list {
		fmt.Println("policies:", micstream.PolicyNames())
		fmt.Println("patterns:", micstream.PatternNames())
		fmt.Println("arrivals:", micstream.ArrivalNames())
		return
	}
	switch {
	case *scale < 1:
		usageError("-scale must be positive, got %d", *scale)
	case *partitions < 1:
		usageError("-partitions must be positive, got %d", *partitions)
	case *streams < 1:
		usageError("-streams must be positive, got %d", *streams)
	case *window <= 0:
		usageError("-window must be positive, got %v", *window)
	case *explain < -1:
		usageError("-explain: job index must be -1 (disabled) or non-negative, got %d", *explain)
	}
	// Name-valued flags fail up front with a usage error instead of
	// deep inside a run: an unknown policy, pattern or arrival process
	// is a command-line mistake, not a runtime failure.
	pol, err := micstream.PolicyByName(*policy)
	if err != nil {
		usageError("-policy: %v", err)
	}
	if !slices.Contains(micstream.PatternNames(), *pattern) {
		usageError("-pattern: unknown load pattern %q (have %v)", *pattern, micstream.PatternNames())
	}
	if !slices.Contains(micstream.ArrivalNames(), *arrival) {
		usageError("-arrival: unknown arrival process %q (have %v)", *arrival, micstream.ArrivalNames())
	}

	p, err := micstream.NewPlatform(
		micstream.WithPartitions(*partitions),
		micstream.WithStreamsPerPartition(*streams),
	)
	if err != nil {
		fatal(err)
	}
	scenario, err := micstream.BuildScenario(p, micstream.ScenarioConfig{
		Pattern:  *pattern,
		Arrival:  *arrival,
		Seed:     *seed,
		JobScale: *scale,
		WindowNs: window.Nanoseconds(),
	})
	if err != nil {
		fatal(err)
	}
	// An out-of-range -explain is a command-line mistake: reject it
	// before the run instead of after it.
	if *explain >= len(scenario) {
		usageError("-explain: job index %d out of range [0,%d)", *explain, len(scenario))
	}
	// Telemetry is only recorded when the run will be explained; a
	// bare run keeps the zero-alloc disabled path.
	var rec *micstream.Telemetry
	schedOpts := []micstream.SchedOption{micstream.WithPolicy(pol)}
	if *explain >= 0 {
		rec = micstream.NewTelemetry()
		schedOpts = append(schedOpts, micstream.WithSchedulerTelemetry(rec))
	}
	s, err := micstream.NewScheduler(p, schedOpts...)
	if err != nil {
		fatal(err)
	}
	r, err := s.Run(scenario)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("policy=%s pattern=%s arrival=%s seed=%d: %d jobs over %d streams, makespan %v\n\n",
		r.Policy, *pattern, *arrival, *seed, len(r.Jobs), p.NumStreams(), r.Makespan)
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\tjobs\tthrpt[job/s]\tp50\tp95\tp99\tslowdown")
	for _, ts := range r.Tenants {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%v\t%v\t%v\t%.2f\n",
			ts.Tenant, ts.Jobs, ts.Throughput, ts.P50, ts.P95, ts.P99, ts.MeanSlowdown)
	}
	tw.Flush()
	fmt.Printf("\nJain index: %.3f over slowdown (schedule fairness), %.3f over throughput (offered-load imbalance)\n",
		r.JainSlowdown, r.JainThroughput)

	if *jobs {
		fmt.Println()
		tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "job\ttenant\tstream\tarrival\tstart\tdone\twait\tlatency")
		for _, o := range r.Jobs {
			fmt.Fprintf(tw, "%d\t%s\t%d\t%v\t%v\t%v\t%v\t%v\n",
				o.ID, o.Tenant, o.Stream, o.Arrival, o.Start, o.Done, o.Wait(), o.Latency())
		}
		tw.Flush()
	}

	if *explain >= 0 {
		timelines := micstream.FoldTimelines(rec.Events())
		var target *micstream.JobTimeline
		for i := range timelines {
			if timelines[i].Job == *explain {
				target = &timelines[i]
				break
			}
		}
		if target == nil {
			fatal(fmt.Errorf("-explain: job index %d not present in the run (have %d jobs)", *explain, len(timelines)))
		}
		fmt.Println()
		if err := micstream.WriteTimeline(os.Stdout, target); err != nil {
			fatal(err)
		}
		fmt.Println()
		if err := micstream.WriteTimelineBreakdowns(os.Stdout, "where time goes, by tenant", micstream.TimelinesByTenant(timelines)); err != nil {
			fatal(err)
		}
	}
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "micsched: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "micsched:", err)
	os.Exit(1)
}
