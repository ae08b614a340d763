package sched

import (
	"sort"

	"micstream/internal/hstreams"
	"micstream/internal/model"
	"micstream/internal/telemetry"
)

// driftThreshold is how far the observed per-tenant work mix may move
// (max absolute change of any tenant's share) before the adaptive
// policy recomputes its stream allocation. The hysteresis keeps the
// plan stable under noise while still tracking real load shifts; the
// value is part of the determinism contract (DESIGN.md §8) — a plan
// recomputation happens at exactly the dispatch instant the threshold
// is crossed, never in between.
const driftThreshold = 0.2

// adaptive is the model-guided re-partitioning policy: it predicts
// every job's service time with the analytic performance model,
// maintains the observed per-tenant work mix, and re-divides the
// platform's streams among tenants in proportion to that mix whenever
// it drifts. At each dispatch instant it serves the tenant furthest
// below its allocated stream share — weighted fair sharing in
// predicted-work space, with the weights themselves adapting online.
type adaptive struct {
	m *model.Model
	// partitions is the per-device partition count, fixed at bind.
	partitions int

	// Per-run state, cleared by reset.
	seen    map[int]bool
	arrived map[string]float64
	planned map[string]float64
	plans   int
}

// Adaptive returns the model-guided adaptive policy. The performance
// model is built from the platform's device and link configs when the
// scheduler binds the policy to its context.
func Adaptive() Policy { return &adaptive{} }

// AdaptiveWithModel returns the adaptive policy with a caller-supplied
// (e.g. Fit-calibrated) performance model.
func AdaptiveWithModel(m *model.Model) Policy { return &adaptive{m: m} }

// Name implements Policy.
func (*adaptive) Name() string { return "adaptive" }

// bind implements binder: an unconfigured policy models the platform
// it is scheduling.
func (p *adaptive) bind(ctx *hstreams.Context) {
	cfg := ctx.Config()
	if p.m == nil {
		p.m = model.New(cfg.Device, cfg.Link)
	}
	p.partitions = cfg.Partitions
}

// reset implements resetter.
func (p *adaptive) reset() {
	p.seen = map[int]bool{}
	p.arrived = map[string]float64{}
	p.planned = nil
	p.plans = 0
}

// Pick implements Policy. Dispatch instants are exactly the admission
// and drain events (the scheduler calls Pick nowhere else), so this is
// where the policy observes the mix, re-plans on drift, and places.
func (p *adaptive) Pick(pending []*Pending, idle []int, v *View) (int, int) {
	// Account every newly observed job's model-predicted service time
	// into its tenant's share of the arrived work.
	for _, pd := range pending {
		if !p.seen[pd.Seq] {
			p.seen[pd.Seq] = true
			e := p.m.ServiceTime(pd.Job.Tasks, p.partitions)
			p.arrived[telemetry.TenantLabel(pd.Job.Tenant)] += e.Seconds()
		}
	}
	p.replanIfDrifted()

	// Streams currently held per tenant.
	held := map[string]int{}
	for _, tn := range v.StreamTenant {
		if tn != "" {
			held[tn]++
		}
	}

	// Tenants with pending work, in sorted order for determinism.
	byTenant := map[string]int{} // tenant → pending index of its oldest job
	for i, pd := range pending {
		tn := telemetry.TenantLabel(pd.Job.Tenant)
		if at, ok := byTenant[tn]; !ok || pd.Seq < pending[at].Seq {
			byTenant[tn] = i
		}
	}
	names := make([]string, 0, len(byTenant))
	for tn := range byTenant {
		names = append(names, tn)
	}
	sort.Strings(names)

	// Serve the tenant furthest below its allocated share of the
	// streams; ties go to the lexicographically first tenant.
	streams := float64(len(v.StreamTenant))
	job, bestDeficit := -1, 0.0
	for _, tn := range names {
		deficit := p.planned[tn]*streams - float64(held[tn])
		if job < 0 || deficit > bestDeficit {
			job, bestDeficit = byTenant[tn], deficit
		}
	}

	// Least-loaded idle stream, ties to the lowest id.
	stream := idle[0]
	for _, s := range idle[1:] {
		if v.StreamLoad[s] < v.StreamLoad[stream] {
			stream = s
		}
	}
	return job, stream
}

// replanIfDrifted recomputes the per-tenant stream shares from the
// observed mix when any tenant's share of the arrived work has moved
// more than driftThreshold since the last plan.
func (p *adaptive) replanIfDrifted() {
	// Iterate the arrived shares in sorted tenant order: the total is
	// a float accumulation, so a fixed order keeps re-planning
	// bit-deterministic regardless of map layout.
	tenants := make([]string, 0, len(p.arrived))
	for tn := range p.arrived {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	var total float64
	for _, tn := range tenants {
		total += p.arrived[tn]
	}
	if total <= 0 {
		return
	}
	if p.planned != nil {
		drift := 0.0
		for _, tn := range tenants {
			d := p.arrived[tn]/total - p.planned[tn]
			if d < 0 {
				d = -d
			}
			if d > drift {
				drift = d
			}
		}
		if drift <= driftThreshold {
			return
		}
	}
	p.planned = make(map[string]float64, len(p.arrived))
	for _, tn := range tenants {
		p.planned[tn] = p.arrived[tn] / total
	}
	p.plans++
}
