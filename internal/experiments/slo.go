package experiments

import (
	"bytes"
	"fmt"

	"micstream/internal/cluster"
	"micstream/internal/hstreams"
	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/slo"
	"micstream/internal/telemetry"
)

func init() {
	register("slo", SLO)
}

// The SLO study evaluates tight and loose objectives over two stress
// mixes. The convoy mix (the slicing study's whole-job arm: an
// interactive tenant trapped behind a batch tenant's multi-task jobs)
// breaches the interactive tenant's latency objectives; the imbalance
// mix (every job's data stranded on device 0, no stealing) breaches
// through place-wait instead. The tight objective must alert before
// the loose one on the same tenant — the burn-rate ordering the alert
// design promises.
var sloStudySpec = slo.Spec{Objectives: []slo.Objective{
	{Tenant: "interactive", Name: "int-tight", Kind: slo.KindLatency, Target: 0.9, Threshold: 2 * sim.Millisecond, FastBurn: 8, SlowBurn: 4},
	{Tenant: "batch", Name: "batch-loose", Kind: slo.KindLatency, Target: 0.9, Threshold: 40 * sim.Millisecond, FastBurn: 4, SlowBurn: 2},
	{Tenant: "batch", Name: "batch-deadline", Kind: slo.KindDeadline, Target: 0.8, Threshold: 45 * sim.Millisecond},
	{Tenant: "interactive", Name: "int-floor", Kind: slo.KindThroughput, Target: 0.5, Floor: 200},
}}

// sloImbalanceSpec judges the imbalance mix's tenants (the scenario
// generator's cyclic labels).
var sloImbalanceSpec = slo.Spec{Objectives: []slo.Objective{
	{Tenant: "A", Name: "a-tight", Kind: slo.KindLatency, Target: 0.9, Threshold: 5 * sim.Millisecond, FastBurn: 8, SlowBurn: 4},
	{Tenant: "A", Name: "a-loose", Kind: slo.KindLatency, Target: 0.9, Threshold: 20 * sim.Millisecond, FastBurn: 8, SlowBurn: 4},
}}

// sloCell is one instrumented run's full observable output.
type sloCell struct {
	result *cluster.Result
	eval   *slo.Evaluator
	flight *obs.FlightRecorder
}

// runSLOCell executes one mix with the full SLO stack attached: the
// evaluator and flight recorder share the recorder's observer slots
// through composite hooks, and a budget exhaustion triggers a flight
// dump — the same wiring the serve layer installs.
func runSLOCell(mix string, seed uint64, spec slo.Spec) (*sloCell, error) {
	var build jobsFn
	var opts []cluster.Option
	switch mix {
	case "convoy":
		build = func(*hstreams.Context) ([]cluster.Job, error) { return convoyJobs(seed) }
		opts = convoyOptions()
	case "imbalance":
		cfg := withTiles(strandedMix, 4)
		cfg.Tenants = 2
		build = scenario(cfg, seed)
		opts = []cluster.Option{cluster.WithPlacement(cluster.Predicted()), cluster.WithQueueDepth(16)}
	default:
		return nil, fmt.Errorf("slo study: unknown mix %q", mix)
	}
	ev, err := slo.New(spec)
	if err != nil {
		return nil, err
	}
	fl := obs.NewFlightRecorder(64)
	ev.SetOnExhausted(func(o slo.Objective, at sim.Time) {
		fl.Trigger(fmt.Sprintf("slo %q (tenant %q) error budget exhausted", o.Name, o.TenantLabel()), at)
	})
	rec := telemetry.NewRecorder()
	rec.SetOnEvent(func(e telemetry.Event) {
		ev.OnEvent(e)
		fl.OnEvent(e)
	})
	rec.SetOnMetrics(func(m telemetry.MetricsSnapshot) {
		ev.OnMetrics(m)
		fl.OnMetrics(m)
	})
	r, err := runCluster(2, func(ctx *hstreams.Context) ([]cluster.Job, error) {
		jobs, err := build(ctx)
		if err != nil {
			return nil, err
		}
		// Deadline objectives judge each job's own declared budget:
		// stamp the spec's deadline-kind threshold onto the matching
		// tenant's jobs, as `miccluster -slo` does.
		StampDeadlines(jobs, spec)
		return jobs, nil
	}, append(opts, cluster.WithTelemetry(rec))...)
	if err != nil {
		return nil, err
	}
	return &sloCell{result: r, eval: ev, flight: fl}, nil
}

// StampDeadlines copies each deadline-kind objective's threshold onto
// its tenant's jobs as their declared relative deadline (first
// matching objective wins; jobs that already declare one keep it).
func StampDeadlines(jobs []cluster.Job, spec slo.Spec) {
	for i := range jobs {
		if jobs[i].Deadline != 0 {
			continue
		}
		tenant := telemetry.TenantLabel(jobs[i].Tenant)
		for _, o := range spec.Objectives {
			if o.Kind == slo.KindDeadline && o.TenantLabel() == tenant && o.Threshold > 0 {
				jobs[i].Deadline = o.Threshold
				break
			}
		}
	}
}

// sloReportBytes renders a cell's SLO report — the byte-identity
// artifact the determinism tests compare.
func sloReportBytes(cell *sloCell, seed uint64) ([]byte, error) {
	var buf bytes.Buffer
	err := cell.eval.WriteJSON(&buf, slo.Meta{Run: "study", Seed: int64(seed), Policy: cell.result.Placement})
	return buf.Bytes(), err
}

// SLO regenerates the SLO observability study: both mixes run with the
// full evaluator attached, and each objective's verdict — samples,
// violations, remaining budget, burn rates, alert instants, exhaustion
// — lands in one row. The contract (asserted by the tests): verdicts
// are byte-deterministic, instrumentation never perturbs the runs, a
// tight objective alerts before its loose sibling, and an exhausted
// budget fires a flight-recorder dump.
func SLO() (*Table, error) {
	t := &Table{
		ID:    "slo",
		Title: "SLO objectives under convoy and imbalance stress: budgets, burn rates, alerts",
		Columns: []string{"mix", "objective", "tenant", "kind", "samples", "violations",
			"budget", "burn-fast", "first-alert", "exhausted"},
		Notes: []string{
			"convoy: the slicing study's whole-job arm (12 batch 16-task jobs vs 40 interactive 1-task jobs, SJF, stealing); imbalance: 48 4-tile jobs all stranded on device 0, no stealing",
			"tight vs loose: the interactive tenant promises 2ms, the batch tenant 40ms (convoy); the imbalance mix puts 5ms and 20ms objectives on one tenant; burn-rate alerts at 8x fast / 4x slow (batch-loose at 4x/2x; 20ms/100ms windows — a 0.9 target caps burn at 10x, so the SRE 14x default cannot fire)",
			"budget = fraction of the error budget left at the end of the run (1 untouched, <=0 exhausted); first-alert/exhausted are virtual instants [ms], - when never",
			"batch-deadline stamps its 45ms threshold onto the batch jobs as per-job deadlines; int-floor is a windowed throughput floor in jobs per virtual second",
		},
	}
	for _, mix := range []struct {
		name string
		spec slo.Spec
	}{
		{"convoy", sloStudySpec},
		{"imbalance", sloImbalanceSpec},
	} {
		cell, err := runSLOCell(mix.name, clusterSeed, mix.spec)
		if err != nil {
			return nil, err
		}
		for _, st := range cell.eval.States() {
			firstAlert, exhausted := "-", "-"
			if st.FirstAlertAt > 0 {
				firstAlert = fmtMS(st.FirstAlertAt.Milliseconds())
			}
			if st.Exhausted {
				exhausted = fmtMS(st.ExhaustedAt.Milliseconds())
			}
			t.Rows = append(t.Rows, []string{
				mix.name, st.Objective.Name, st.Objective.TenantLabel(), st.Objective.Kind,
				fmt.Sprintf("%d", st.Samples), fmt.Sprintf("%d", st.Violations),
				fmt.Sprintf("%.2f", st.BudgetRemaining), fmt.Sprintf("%.1f", st.BurnFast),
				firstAlert, exhausted,
			})
		}
	}
	return t, nil
}
