package experiments

import (
	"fmt"

	"micstream/internal/hstreams"
	"micstream/internal/sched"
)

func init() {
	register("fairness", Fairness)
	register("imbalance", Imbalance)
}

// runSchedScenario executes one (policy, pattern, seed) cell on a
// fresh platform of 4 partitions × 2 streams under bursty arrivals —
// the arrival process that stresses the admission queue hardest. Two
// streams per partition is what separates the placement policies:
// FIFO packs the lowest-numbered idle streams and so co-schedules
// jobs on a shared partition while other partitions idle; RR spreads
// placement across partitions.
func runSchedScenario(policy, pattern string, seed uint64) (*sched.Result, error) {
	// No trace: the scheduler accounts from its own outcome record,
	// so span recording would only cost allocation across the ~84
	// scenario runs.
	ctx, err := hstreams.Init(hstreams.Config{Partitions: 4, StreamsPerPartition: 2})
	if err != nil {
		return nil, err
	}
	jobs, err := sched.BuildScenario(ctx, sched.ScenarioConfig{
		Pattern: pattern,
		Arrival: "bursty",
		Seed:    seed,
		// 20 ms window: the severe pattern offers ~135 ms of service
		// against ~160 ms of stream capacity, deep in the queueing
		// regime where policy choice matters.
		WindowNs: 20_000_000,
	})
	if err != nil {
		return nil, err
	}
	p, err := sched.ByName(policy)
	if err != nil {
		return nil, err
	}
	s, err := sched.New(ctx, sched.WithPolicy(p))
	if err != nil {
		return nil, err
	}
	return s.Run(jobs)
}

// Fairness regenerates the multi-tenant fairness study: Jain's index
// over per-tenant mean slowdowns for every (load-imbalance pattern ×
// policy) cell, four tenants on four partitions under bursty
// arrivals. The balanced row stays near 1 for every policy; skewed
// rows separate the policies — the scheduling analogue of the
// follow-up work's "Jain index vs load imbalance" study.
func Fairness() (*Table, error) {
	t := &Table{
		ID:      "fairness",
		Title:   "Jain fairness index over per-tenant slowdown, by load-imbalance pattern and policy",
		Columns: []string{"pattern", "fifo", "rr", "sjf"},
		Notes: []string{
			"4 tenants on 4 partitions × 2 streams, bursty arrivals; 1 = every tenant suffers equal queueing degradation",
		},
	}
	const seeds = 7
	for _, pattern := range sched.Patterns() {
		row := []string{pattern}
		for _, policy := range []string{"fifo", "rr", "sjf"} {
			jain, err := seedMeans(seeds, func(seed uint64) ([]float64, error) {
				r, err := runSchedScenario(policy, pattern, seed)
				if err != nil {
					return nil, err
				}
				return []float64{r.JainSlowdown}, nil
			})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", jain[0]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("each cell averages %d seeded arrival streams", seeds))
	return t, nil
}

// Imbalance regenerates the per-tenant load-imbalance study: under
// FIFO, each pattern's per-tenant throughput, latency percentiles and
// mean slowdown, showing how a heavy tenant's burst inflates the tail
// latency of the light tenants sharing the platform.
func Imbalance() (*Table, error) {
	t := &Table{
		ID:      "imbalance",
		Title:   "Per-tenant accounting under load imbalance (FIFO, bursty arrivals)",
		Columns: []string{"pattern", "tenant", "jobs", "thrpt[job/s]", "p50[ms]", "p99[ms]", "slowdown"},
	}
	for _, pattern := range sched.Patterns() {
		r, err := runSchedScenario("fifo", pattern, clusterSeed)
		if err != nil {
			return nil, err
		}
		for _, ts := range r.Tenants {
			t.Rows = append(t.Rows, []string{
				pattern,
				ts.Tenant,
				fmt.Sprintf("%d", ts.Jobs),
				fmt.Sprintf("%.0f", ts.Throughput),
				fmtMS(ts.P50.Milliseconds()),
				fmtMS(ts.P99.Milliseconds()),
				fmt.Sprintf("%.2f", ts.MeanSlowdown),
			})
		}
	}
	t.Notes = append(t.Notes,
		"weights per pattern: balanced 20/20/20/20, mild 10/20/30/40, moderate 5/15/30/50, severe 5/10/40/80 jobs per tenant")
	return t, nil
}
