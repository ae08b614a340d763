package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"micstream"
	"micstream/internal/obs"
	"micstream/internal/sim"
	"micstream/internal/slo"
	"micstream/internal/telemetry"
	"micstream/internal/workload"
)

var serveIngest = benchWorkload{
	name: "serve-ingest",
	why:  "closed loop through Serve with observers off: per-epoch session and frontier cost dominate, per-job scheduling is trivial",
	run: func(seed uint64, b time.Duration, tr *tracer) (*outcome, error) {
		return runServe(seed, b, tr, false)
	},
}

var serveObserved = benchWorkload{
	name: "serve-observed",
	why:  "the serve-ingest load with telemetry, OpenMetrics, flight recorder, SLOs and periodic /metrics scrapes: observers dominate",
	run: func(seed uint64, b time.Duration, tr *tracer) (*outcome, error) {
		return runServe(seed, b, tr, true)
	},
}

// Session sizes: observer cost grows with session age, so each round
// is a fresh server fed a fixed number of jobs, and the observed
// session is shorter to keep a round near the ingest one in time.
const (
	ingestJobs   = 20000
	observedJobs = 4000
	scrapeEvery  = 500
)

// serveSpec is the SLO spec the observed workload evaluates: one
// objective of each kind over the generator's tenants.
var serveSpec = slo.Spec{Objectives: []slo.Objective{
	{Tenant: "t0", Name: "t0-latency", Kind: slo.KindLatency, Target: 0.95, Threshold: 5 * sim.Millisecond},
	{Tenant: "t1", Name: "t1-deadline", Kind: slo.KindDeadline, Target: 0.9, Threshold: 8 * sim.Millisecond},
	{Tenant: "t2", Name: "t2-floor", Kind: slo.KindThroughput, Target: 0.9, Floor: 50},
}}

// serveJobs generates the ingest load: four tenants, five kernel sizes,
// and a quarter of the jobs staged from an origin device.
func serveJobs(seed uint64, n int) []micstream.ClusterJob {
	rng := workload.NewRNG(seed ^ 0x73657276) // "serv"
	jobs := make([]micstream.ClusterJob, n)
	for id := range jobs {
		j := micstream.ClusterJob{
			ID:     id,
			Tenant: fmt.Sprintf("t%d", id%4),
			Tasks: []*micstream.Task{{
				Cost:       micstream.KernelCost{Name: "ingest", Flops: 2e8 + 1e8*float64(rng.Intn(5))},
				StreamHint: -1,
			}},
			Origin: -1,
		}
		if rng.Intn(4) == 0 {
			j.Origin = rng.Intn(2)
			j.StagingBytes = 4 << 20
		}
		jobs[id] = j
	}
	return jobs
}

func newServeCluster(tel *micstream.Telemetry) (*micstream.Cluster, error) {
	opts := []micstream.ClusterOption{
		micstream.WithClusterDevices(2),
		micstream.WithClusterPartitions(4),
		micstream.WithClusterStreams(2),
		micstream.WithPlacement(micstream.PredictedPlacement()),
	}
	if tel != nil {
		opts = append(opts, micstream.WithClusterTelemetry(tel))
	}
	return micstream.NewCluster(opts...)
}

// serveRound is one server session's set-up and the observers it uses.
type serveRound struct {
	jobs []micstream.ClusterJob
	srv  *micstream.ClusterServer
	tel  *micstream.Telemetry
}

func setupServe(seed uint64, n int, observed bool) (*serveRound, error) {
	r := &serveRound{jobs: serveJobs(seed, n)}
	var opts []micstream.ServeOption
	if observed {
		ev, err := slo.New(serveSpec)
		if err != nil {
			return nil, err
		}
		r.tel = micstream.NewTelemetry()
		opts = append(opts,
			micstream.WithServeExporter(micstream.NewOpenMetricsExporter()),
			micstream.WithServeFlight(micstream.NewFlightRecorder(256)),
			micstream.WithServeSLO(ev))
	}
	c, err := newServeCluster(r.tel)
	if err != nil {
		return nil, err
	}
	r.srv, err = micstream.Serve(c, opts...)
	return r, err
}

// serveTimes collects the traced run's wall-clock samples.
type serveTimes struct {
	submit, lag, scrape, scrapeKB   []float64
	sessSubmit, epochs              []float64
	sloEvent, flightEvent           time.Duration
	nEvents                         int
	sloMetrics, exporterObserve     time.Duration
	nMetrics                        int
	liveElapsed                     time.Duration
	heapPerJob, eventsPerJob, snaps float64
}

func runServe(seed uint64, budget time.Duration, tr *tracer, observed bool) (*outcome, error) {
	n := ingestJobs
	if observed {
		n = observedJobs
	}
	o := &outcome{values: map[string]float64{}}
	var setups, rates, allocs, heaps []float64
	var first []micstream.ClusterOutcome
	st := &serveTimes{}
	err := rounds(budget, 1, func(round int) error {
		fence()
		t0 := time.Now()
		sp := tr.begin(int64(round*n), "serve.New")
		r, err := setupServe(seed, n, observed)
		tr.end(sp)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		var heap0 float64
		if tr != nil {
			heap0 = heapLiveMB()
		}
		o.attempted += n
		live, elapsed, m, err := ingest(o, r, round*n, tr, st)
		if err != nil {
			return err
		}
		rates = append(rates, float64(n)/elapsed.Seconds())
		allocs = append(allocs, float64(m)/float64(n))
		heaps = append(heaps, heapLiveMB())
		if tr != nil {
			st.liveElapsed += elapsed
			// Session growth per job, plus the subscriber's copy of
			// each outcome, which the replay check needs.
			st.heapPerJob = (heaps[len(heaps)-1] - heap0) * 1e6 / float64(n)
			if observed {
				st.eventsPerJob = float64(r.tel.Len()) / float64(n)
				st.snaps = float64(len(r.tel.Metrics()))
			}
		}
		checkServe(o, r, live)
		var replayed []micstream.ClusterOutcome
		if tr == nil {
			replayed, err = replay(r.srv.Batches())
		} else {
			replayed, err = tracedReplay(r.srv.Batches(), round*n, tr, st, observed)
		}
		if err != nil {
			return err
		}
		checkSame(o, "replayed outcome stream", live, replayed)
		if first == nil {
			first = live
		} else {
			checkSame(o, fmt.Sprintf("round %d outcome stream", round), first, live)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = median(setups)
	o.values["ops_per_s"] = median(rates)
	o.values["allocs_per_op"] = median(allocs)
	o.values["heap_live_mb"] = median(heaps)
	o.fingerprint = first
	o.ops = n * len(rates)
	o.info = append(o.info, fmt.Sprintf("rounds %d of %d jobs, %.0f jobs/s median", len(rates), n, median(rates)))
	if tr != nil {
		st.report(o.values, o.ops)
	}
	return o, nil
}

// ingest is the closed-loop generator: this goroutine submits one job
// at a time, so every epoch admits exactly one job, while one
// subscriber goroutine receives every outcome. It returns the outcome
// stream, the wall time from first submit to drained, and the
// allocations made meanwhile.
func ingest(o *outcome, r *serveRound, op0 int, tr *tracer, st *serveTimes) ([]micstream.ClusterOutcome, time.Duration, uint64, error) {
	n := len(r.jobs)
	var live []micstream.ClusterOutcome
	var recvAt []time.Time
	submitAt := make([]time.Time, n)
	handler := r.srv.Handler()
	sub := r.srv.Subscribe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			oc, ok := sub.Next()
			if !ok {
				return
			}
			live = append(live, oc)
			if tr != nil {
				recvAt = append(recvAt, time.Now())
			}
		}
	}()
	fence()
	m0 := mallocs()
	t0 := time.Now()
	for i, j := range r.jobs {
		sp := tr.begin(int64(op0+i), "serve.Submit")
		ts := time.Now()
		idx, err := r.srv.Submit(j)
		if tr != nil {
			st.submit = append(st.submit, float64(time.Since(ts).Nanoseconds())/1e3)
			if idx >= 0 && idx < n {
				submitAt[idx] = ts
			}
		}
		tr.end(sp)
		if err != nil {
			o.fail("submit job %d: %v", j.ID, err)
		}
		if r.tel != nil && (i+1)%scrapeEvery == 0 {
			scrape(o, handler, int64(op0+i), tr, st)
		}
	}
	sp := tr.begin(int64(op0+n-1), "serve.Drain")
	err := r.srv.Drain(time.Minute)
	tr.end(sp)
	wg.Wait()
	elapsed := time.Since(t0)
	m := mallocs() - m0
	if err != nil {
		return nil, 0, 0, fmt.Errorf("drain: %w", err)
	}
	for k := range recvAt {
		if idx := live[k].Index; idx >= 0 && idx < n {
			st.lag = append(st.lag, float64(recvAt[k].Sub(submitAt[idx]).Nanoseconds())/1e3)
		}
	}
	return live, elapsed, m, nil
}

// scrape reads /metrics through the server's handler in-process, with
// no socket in the path.
func scrape(o *outcome, h http.Handler, op int64, tr *tracer, st *serveTimes) {
	w := httptest.NewRecorder()
	sp := tr.begin(op, "obs.Scrape")
	t0 := time.Now()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	dt := time.Since(t0)
	tr.end(sp)
	if w.Code != http.StatusOK || w.Body.Len() == 0 {
		o.fail("/metrics scrape: status %d, %d bytes", w.Code, w.Body.Len())
	}
	if tr != nil {
		st.scrape = append(st.scrape, msOf(dt))
		st.scrapeKB = append(st.scrapeKB, float64(w.Body.Len())/1e3)
	}
}

// checkServe counts a job as failed unless its outcome arrived exactly
// once and completed, and the server's counters agree.
func checkServe(o *outcome, r *serveRound, live []micstream.ClusterOutcome) {
	n := len(r.jobs)
	st := r.srv.Stats()
	if st.Submitted != n || st.Completed != st.Submitted {
		o.fail("server counted %d submitted, %d completed, for %d jobs", st.Submitted, st.Completed, n)
	}
	if res, err := r.srv.Result(); err != nil || res.Failed != 0 {
		o.fail("server result: %v, %d failed", err, res.Failed)
	}
	seen := make([]bool, n)
	for _, oc := range live {
		if oc.Index < 0 || oc.Index >= n || seen[oc.Index] {
			o.fail("outcome index %d out of range or repeated", oc.Index)
			continue
		}
		seen[oc.Index] = true
		if oc.Failed || oc.Done < oc.Arrival {
			o.fail("job %d did not complete", oc.ID)
		}
	}
	if len(live) != n {
		o.fail("%d outcomes streamed for %d jobs", len(live), n)
	}
}

// replay re-runs the recorded batches single-threaded on a fresh,
// identically configured cluster without observers, as micserve
// -verify does.
func replay(batches []micstream.ServeBatch) ([]micstream.ClusterOutcome, error) {
	c, err := newServeCluster(nil)
	if err != nil {
		return nil, err
	}
	var out []micstream.ClusterOutcome
	if _, err := micstream.ReplayBatches(c, batches, func(oc micstream.ClusterOutcome) { out = append(out, oc) }); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return out, nil
}

// tracedReplay re-runs the recorded batches through a cluster session,
// timing each Submit and RunEpoch. On the observed workload it attaches
// fresh observers through recorder hooks wired the way serve.New wires
// them, each hook forwarding to the observer under a timed span.
func tracedReplay(batches []micstream.ServeBatch, op0 int, tr *tracer, st *serveTimes, observed bool) ([]micstream.ClusterOutcome, error) {
	var tel *micstream.Telemetry
	op := int64(op0)
	if observed {
		tel = micstream.NewTelemetry()
		x := obs.NewExporter()
		f := obs.NewFlightRecorder(256)
		ev, err := slo.New(serveSpec)
		if err != nil {
			return nil, err
		}
		ev.SetOnExhausted(func(ob slo.Objective, now sim.Time) {
			f.Trigger(fmt.Sprintf("slo %q (tenant %q) error budget exhausted", ob.Name, ob.TenantLabel()), now)
		})
		timed := func(name string, acc *time.Duration, fn func()) {
			sp := tr.begin(op, name)
			t0 := time.Now()
			fn()
			*acc += time.Since(t0)
			tr.end(sp)
		}
		tel.SetOnEvent(func(e telemetry.Event) {
			st.nEvents++
			timed("slo.OnEvent", &st.sloEvent, func() { ev.OnEvent(e) })
			timed("obs.FlightOnEvent", &st.flightEvent, func() { f.OnEvent(e) })
		})
		var flightMetrics time.Duration
		tel.SetOnMetrics(func(m telemetry.MetricsSnapshot) {
			st.nMetrics++
			timed("obs.ExporterObserve", &st.exporterObserve, func() { x.Observe(m) })
			timed("slo.OnMetrics", &st.sloMetrics, func() { ev.OnMetrics(m) })
			timed("obs.FlightOnMetrics", &flightMetrics, func() { f.OnMetrics(m) })
		})
	}
	c, err := newServeCluster(tel)
	if err != nil {
		return nil, err
	}
	var out []micstream.ClusterOutcome
	sess, err := micstream.NewClusterSession(c, func(oc micstream.ClusterOutcome) { out = append(out, oc) })
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	for i, b := range batches {
		op = int64(op0 + i)
		sp := tr.begin(op, "cluster.Session.Submit")
		t0 := time.Now()
		_, err := sess.Submit(b.Jobs)
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
		sp = tr.begin(op, "cluster.Session.RunEpoch")
		t2 := time.Now()
		_, err = sess.RunEpoch()
		t3 := time.Now()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay epoch %d: %w", i, err)
		}
		st.sessSubmit = append(st.sessSubmit, float64(t1.Sub(t0).Nanoseconds())/1e3)
		st.epochs = append(st.epochs, float64(t3.Sub(t2).Nanoseconds())/1e3)
	}
	return out, nil
}

// report turns the traced samples into per-layer metrics.
func (st *serveTimes) report(v map[string]float64, jobs int) {
	v["serve.submit_us.p50"] = quantile(st.submit, 0.5)
	v["serve.submit_us.p99"] = quantile(st.submit, 0.99)
	v["serve.submit_us.n"] = float64(len(st.submit))
	v["serve.outcome_lag_us.p50"] = quantile(st.lag, 0.5)
	v["serve.outcome_lag_us.p99"] = quantile(st.lag, 0.99)
	v["serve.outcome_lag_us.n"] = float64(len(st.lag))
	v["serve.epochs"] = float64(len(st.epochs))
	v["serve.jobs_per_epoch"] = float64(jobs) / float64(max(len(st.epochs), 1))
	v["cluster.session.submit_us"] = median(st.sessSubmit)
	k := min(10, len(st.epochs))
	v["cluster.session.run_epoch_us.first10"] = mean(st.epochs[:k])
	v["cluster.session.run_epoch_us.last10"] = mean(st.epochs[len(st.epochs)-k:])
	perEpoch := (sum(st.sessSubmit) + sum(st.epochs)) / float64(max(len(st.epochs), 1))
	v["serve.frontier_us_per_job"] = float64(st.liveElapsed.Nanoseconds())/1e3/float64(jobs) - perEpoch*float64(len(st.epochs))/float64(jobs)
	v["serve.heap_per_job_b"] = st.heapPerJob
	v["telemetry.events_per_job"] = st.eventsPerJob
	v["telemetry.snapshots"] = st.snaps
	if st.nEvents > 0 {
		v["slo.on_event_ns"] = float64(st.sloEvent.Nanoseconds()) / float64(st.nEvents)
		v["obs.flight_on_event_ns"] = float64(st.flightEvent.Nanoseconds()) / float64(st.nEvents)
	}
	if st.nMetrics > 0 {
		v["slo.on_metrics_us"] = float64(st.sloMetrics.Nanoseconds()) / 1e3 / float64(st.nMetrics)
		v["obs.exporter_observe_us"] = float64(st.exporterObserve.Nanoseconds()) / 1e3 / float64(st.nMetrics)
	}
	v["obs.scrape_ms"] = mean(st.scrape)
	v["obs.scrape_kb"] = mean(st.scrapeKB)
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
