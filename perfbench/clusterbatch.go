package main

import (
	"fmt"
	"time"

	"micstream"
	"micstream/internal/sched"
)

var clusterBatch = benchWorkload{
	name: "cluster-batch",
	why:  "one large Cluster.Run: placement, stealing, slicing, residency and sched dispatch do the work; no frontier, no observers",
	run:  runClusterBatch,
}

// The cluster-batch mix: four devices near 0.9 kernel utilization
// under affinity placement, with stealing and two-task slices behind
// an SJF device policy (so a heavy job's remainder waits and can
// migrate mid-job), four-tile jobs over a 64x size range, and
// device-resident datasets that are partly rewritten, behind an LRU
// cache smaller than their working set (24 datasets of 256 KiB
// against 2 MiB per device). Hits, evictions, invalidations, steals
// and mid-job migrations all occur.
const (
	batchJobs     = 6000
	batchGapNs    = 120_000 // mean arrival gap per job
	batchCacheCap = 2 << 20
)

func batchScenario(seed uint64) micstream.ClusterScenarioConfig {
	return micstream.ClusterScenarioConfig{
		Jobs:             batchJobs,
		Seed:             seed,
		Arrival:          "poisson",
		WindowNs:         batchJobs * batchGapNs,
		Tenants:          4,
		TilesPerJob:      4,
		XferBytes:        256 << 10,
		SizeSpread:       8,
		AffinityFraction: 0.7,
		Origins:          []int{0, 1},
		Datasets:         24,
		WriteFraction:    0.15,
	}
}

// newBatchCluster builds the cluster-batch cluster over per-device
// policies from policy.
func newBatchCluster(policy func() micstream.SchedPolicy) (*micstream.Cluster, error) {
	opts := []micstream.ClusterOption{
		micstream.WithClusterDevices(4),
		micstream.WithClusterPartitions(2),
		micstream.WithClusterStreams(2),
		micstream.WithPlacement(micstream.AffinityPlacement()),
		micstream.WithClusterStealing(0),
		micstream.WithClusterSlicing(2),
		micstream.WithResidency(batchCacheCap),
		micstream.WithClusterDevicePolicy(policy),
	}
	return micstream.NewCluster(opts...)
}

// pickTimer wraps a per-device policy to count and time its picks.
type pickTimer struct {
	sched.Policy
	tr    *tracer
	picks *int
	dur   *time.Duration
}

func (p pickTimer) Pick(pending []*sched.Pending, idle []int, v *sched.View) (int, int) {
	sp := p.tr.begin(-1, "sched.Pick")
	t0 := time.Now()
	pi, stream := p.Policy.Pick(pending, idle, v)
	*p.dur += time.Since(t0)
	p.tr.end(sp)
	p.tr.spans[sp].Op = int64(pending[pi].Job.ID)
	*p.picks++
	return pi, stream
}

func runClusterBatch(seed uint64, budget time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	var setups, rates, allocs, heaps, builds []float64
	var picks int
	var pickDur, runDur time.Duration
	var steps, spans uint64
	var first *micstream.ClusterResult
	var c *micstream.Cluster
	var jobs []micstream.ClusterJob
	err := rounds(budget, 1, func(round int) error {
		policy := micstream.SJFPolicy
		if tr != nil {
			policy = func() micstream.SchedPolicy {
				return pickTimer{Policy: micstream.SJFPolicy(), tr: tr, picks: &picks, dur: &pickDur}
			}
		}
		op := int64(round * batchJobs)
		fence()
		t0 := time.Now()
		sp := tr.begin(op, "cluster.New")
		var err error
		c, err = newBatchCluster(policy)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(op, "workload.BuildScenario")
		t1 := time.Now()
		jobs, err = micstream.BuildClusterScenario(c, batchScenario(seed))
		builds = append(builds, time.Since(t1).Seconds())
		tr.end(sp)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())

		eng, rec := c.Context().Engine(), c.Context().Recorder()
		s0, n0 := eng.Steps(), rec.Len()
		fence()
		m0 := mallocs()
		sp = tr.begin(op, "cluster.Run")
		t2 := time.Now()
		r, err := c.Run(jobs)
		dt := time.Since(t2)
		tr.end(sp)
		m1 := mallocs()
		if err != nil {
			return fmt.Errorf("cluster run: %w", err)
		}
		runDur += dt
		steps += eng.Steps() - s0
		spans += uint64(rec.Len() - n0)
		rates = append(rates, float64(len(jobs))/dt.Seconds())
		allocs = append(allocs, float64(m1-m0)/float64(len(jobs)))
		heaps = append(heaps, heapLiveMB())
		o.attempted += len(jobs)
		checkBatch(o, jobs, r)
		if first == nil {
			first = r
			return nil
		}
		checkSame(o, fmt.Sprintf("round %d cluster result", round), first, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(rates))
	o.values["setup_s"] = median(setups)
	o.values["ops_per_s"] = median(rates)
	o.values["allocs_per_op"] = median(allocs)
	o.values["heap_live_mb"] = median(heaps)
	o.fingerprint = first
	o.ops = len(jobs) * len(rates)
	p95, makespan := virtual(first)
	o.info = append(o.info,
		fmt.Sprintf("rounds %d of %d jobs, %.0f jobs/s median", len(rates), len(jobs), median(rates)),
		fmt.Sprintf("virt_p95_ms %.6g ms (n=%d)", p95, len(first.Jobs)),
		fmt.Sprintf("virt_makespan_ms %.6g ms", makespan),
		fmt.Sprintf("steals %d, preempts %d, staged %.1f MB, hit %d B, miss %d B, evicted %d B",
			first.Steals, first.Preempts, float64(first.StagedBytes)/1e6, first.HitBytes, first.MissBytes, first.EvictedBytes))
	if tr != nil {
		var ku, lu float64
		for _, d := range first.Devices {
			ku += d.KernelUtilization / float64(len(first.Devices))
			lu += d.LinkUtilization / float64(len(first.Devices))
		}
		res := c.Residency().Stats()
		jobsRun := float64(o.ops)
		o.values["workload.build_scenario_ms"] = median(builds) * 1e3
		o.values["cluster.run_s"] = runDur.Seconds() / n
		o.values["sim.steps_per_job"] = float64(steps) / jobsRun
		o.values["sim.ns_per_step"] = float64(runDur.Nanoseconds()) / float64(steps)
		o.values["trace.spans_per_job"] = float64(spans) / jobsRun
		o.values["sched.picks_per_job"] = float64(picks) / jobsRun
		o.values["sched.pick_ns"] = float64(pickDur.Nanoseconds()) / float64(max(picks, 1))
		o.values["cluster.steals"] = float64(first.Steals)
		o.values["cluster.preempts"] = float64(first.Preempts)
		o.values["cluster.staged_mb"] = float64(first.StagedBytes) / 1e6
		o.values["residency.hit_ratio"] = float64(first.HitBytes) / float64(max(first.HitBytes+first.MissBytes, 1))
		o.values["residency.evicted_mb"] = float64(first.EvictedBytes) / 1e6
		o.values["residency.invalidated_mb"] = float64(res.InvalidatedBytes) / 1e6
		o.values["device.kernel_util"] = ku
		o.values["pcie.link_util"] = lu
		o.values["cluster.virt_p95_ms"] = p95
		o.values["cluster.virt_p95_n"] = float64(len(first.Jobs))
		o.values["cluster.virt_makespan_ms"] = makespan
	}
	return o, nil
}

// checkBatch counts a job as failed unless it is terminal exactly once
// and completed: one outcome per job, in submission order, with a
// consistent lifecycle.
func checkBatch(o *outcome, jobs []micstream.ClusterJob, r *micstream.ClusterResult) {
	if r.Failed != 0 {
		o.fail("cluster-batch: %d failed jobs", r.Failed)
	}
	if len(r.Jobs) != len(jobs) {
		o.fail("cluster-batch: %d outcomes for %d jobs", len(r.Jobs), len(jobs))
		return
	}
	seen := make(map[int]bool, len(jobs))
	for i, oc := range r.Jobs {
		switch {
		case oc.Index != i || oc.ID != jobs[i].ID || seen[oc.ID]:
			o.fail("cluster-batch: outcome %d is job %d (index %d), not exactly once", i, oc.ID, oc.Index)
		case oc.Failed || oc.Slices < 1 || oc.Start < oc.Arrival || oc.Done < oc.Start:
			o.fail("cluster-batch: job %d did not complete (failed=%v slices=%d)", oc.ID, oc.Failed, oc.Slices)
		}
		seen[oc.ID] = true
	}
}

// virtual reports the simulated p95 job latency and makespan in ms.
func virtual(r *micstream.ClusterResult) (p95, makespan float64) {
	lat := make([]float64, len(r.Jobs))
	for i, oc := range r.Jobs {
		lat[i] = oc.Latency().Milliseconds()
	}
	return quantile(lat, 0.95), r.Makespan.Milliseconds()
}
