package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"

	"micstream"
	"micstream/internal/experiments"
)

// scenarioShape projects a cluster scenario onto its generated values,
// leaving out the per-cluster buffer pointers.
func scenarioShape(t *testing.T, seed uint64) []any {
	t.Helper()
	c, err := newBatchCluster(micstream.SJFPolicy)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := micstream.BuildClusterScenario(c, batchScenario(seed))
	if err != nil {
		t.Fatal(err)
	}
	var out []any
	for _, j := range jobs {
		out = append(out, j.ID, j.Tenant, j.Arrival, j.Origin, j.StagingBytes, j.Reads, j.Writes, j.Tasks[0].Cost)
	}
	return out
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	if a, b := shuffled(paperTables, 7), shuffled(paperTables, 7); !reflect.DeepEqual(a, b) {
		t.Errorf("table order differs for one seed: %v vs %v", a, b)
	}
	a, b := shuffled(paperTables, 7), append([]string(nil), paperTables...)
	sort.Strings(a)
	sort.Strings(b)
	if !slices.Equal(a, b) {
		t.Errorf("table order %v is not a permutation of the paper's tables", a)
	}
	if reflect.DeepEqual(shuffled(paperTables, 7), shuffled(paperTables, 8)) {
		t.Error("seeds 7 and 8 give the same table order")
	}
	if !reflect.DeepEqual(serveJobs(7, 500), serveJobs(7, 500)) {
		t.Error("serve jobs differ for one seed")
	}
	if reflect.DeepEqual(serveJobs(7, 500), serveJobs(8, 500)) {
		t.Error("seeds 7 and 8 give the same serve jobs")
	}
	if !reflect.DeepEqual(scenarioShape(t, 7), scenarioShape(t, 7)) {
		t.Error("cluster scenario differs for one seed")
	}
	if reflect.DeepEqual(scenarioShape(t, 7), scenarioShape(t, 8)) {
		t.Error("seeds 7 and 8 give the same cluster scenario")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", m.name, m.unit, m.better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, w := range workloads {
		want = append(want, entry{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(b.Workloads, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", b.Workloads, want)
	}
	for i, decl := range [][]metric{endToEnd, perLayer} {
		got := [][]entry{b.EndToEnd, b.PerLayer}[i]
		if len(got) != len(decl) {
			t.Fatalf("BENCHMARK.json lists %d metrics, code %d", len(got), len(decl))
		}
		for k, m := range decl {
			if e := got[k]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
				t.Errorf("BENCHMARK.json metric %+v, code %+v", e, m)
			}
		}
	}
	for _, e := range b.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Name != "setup_s" && e.Bound >= b.EndToEnd[0].Bound) {
			t.Errorf("metric %s: bound %g", e.Name, e.Bound)
		}
	}
}

func TestPaperCheckRejectsCorruptTable(t *testing.T) {
	var want map[string]string
	if err := json.Unmarshal(paperDigestsJSON, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(paperTables) {
		t.Fatalf("%d recorded digests for %d tables", len(want), len(paperTables))
	}
	g, _ := experiments.Lookup("fig5")
	tab, err := g()
	o := &outcome{}
	checkTable(o, "fig5", tab, err, want["fig5"])
	if o.failed != 0 {
		t.Fatalf("fig5 does not match its recorded digest")
	}
	tab.Rows[3][1] = "0.000"
	if checkTable(o, "fig5", tab, nil, want["fig5"]); o.failed != 1 {
		t.Error("a corrupted fig5 cell passed the digest check")
	}
	if checkTable(o, "fig5", nil, os.ErrInvalid, want["fig5"]); o.failed != 2 {
		t.Error("a failed generator passed the check")
	}
}

// TestClusterBatchExercisesEveryMechanism runs one cluster-batch round
// and checks the mix really steals, migrates mid-job, hits, evicts
// and invalidates, and that the batch check rejects corrupted results.
func TestClusterBatchExercisesEveryMechanism(t *testing.T) {
	c, err := newBatchCluster(micstream.SJFPolicy)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := micstream.BuildClusterScenario(c, batchScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Residency().Stats()
	for name, v := range map[string]int64{
		"steals": int64(r.Steals), "preempts": int64(r.Preempts), "hit bytes": r.HitBytes,
		"evicted bytes": r.EvictedBytes, "invalidated bytes": st.InvalidatedBytes,
	} {
		if v <= 0 {
			t.Errorf("cluster-batch %s = %d, want > 0", name, v)
		}
	}

	o := &outcome{}
	if checkBatch(o, jobs, r); o.failed != 0 {
		t.Fatalf("clean result failed %d checks", o.failed)
	}
	corrupt := func(name string, mutate func(*micstream.ClusterResult)) {
		bad := *r
		bad.Jobs = append([]micstream.ClusterOutcome(nil), r.Jobs...)
		mutate(&bad)
		o := &outcome{}
		if checkBatch(o, jobs, &bad); o.failed == 0 {
			t.Errorf("batch check accepted %s", name)
		}
	}
	corrupt("a failed job", func(b *micstream.ClusterResult) { b.Jobs[9].Failed = true; b.Failed = 1 })
	corrupt("a repeated outcome", func(b *micstream.ClusterResult) { b.Jobs[9] = b.Jobs[8] })
	corrupt("a missing outcome", func(b *micstream.ClusterResult) { b.Jobs = b.Jobs[1:] })

	r2, err := func() (*micstream.ClusterResult, error) {
		c, err := newBatchCluster(micstream.SJFPolicy)
		if err != nil {
			return nil, err
		}
		jobs, err := micstream.BuildClusterScenario(c, batchScenario(1))
		if err != nil {
			return nil, err
		}
		return c.Run(jobs)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if checkSame(o, "rerun", r, r2); o.failed != 0 {
		t.Error("a rerun of the same scenario differs")
	}
	r2.Jobs[0].Done++
	if checkSame(o, "rerun", r, r2); o.failed != 1 {
		t.Error("a changed completion time passed the identity check")
	}
}

func TestServeChecksRejectCorruptStreams(t *testing.T) {
	for _, observed := range []bool{false, true} {
		r, err := setupServe(3, 2*scrapeEvery, observed)
		if err != nil {
			t.Fatal(err)
		}
		o := &outcome{}
		live, _, _, err := ingest(o, r, 0, nil, &serveTimes{})
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := replay(r.srv.Batches())
		if err != nil {
			t.Fatal(err)
		}
		checkServe(o, r, live)
		checkSame(o, "replay", live, replayed)
		if o.failed != 0 {
			t.Fatalf("observed=%v: clean session failed %d checks", observed, o.failed)
		}
		if got := len(r.srv.Batches()); got != len(r.jobs) {
			t.Errorf("observed=%v: %d epochs for %d jobs, want one job per epoch", observed, got, len(r.jobs))
		}

		dup := append(append([]micstream.ClusterOutcome(nil), live[:len(live)-1]...), live[0])
		if checkServe(o, r, dup); o.failed == 0 {
			t.Errorf("observed=%v: serve check accepted a repeated outcome", observed)
		}
		o.failed = 0
		bad := append([]micstream.ClusterOutcome(nil), live...)
		bad[4].Done++
		if checkSame(o, "replay", bad, replayed); o.failed != 1 {
			t.Errorf("observed=%v: replay check accepted a changed outcome", observed)
		}
	}

	o := &outcome{}
	broken := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusInternalServerError) })
	if scrape(o, broken, 0, nil, &serveTimes{}); o.failed != 1 {
		t.Error("scrape check accepted a failing /metrics")
	}
}
