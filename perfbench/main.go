// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator, checks the workload's outputs, and
// prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, all in host time;
// cluster-batch also prints its simulated p95 job latency and makespan
// above the result line. With --trace 1 it runs the workload bare for
// half the budget, then one round with spans around every call into a
// layer, checks that both produced identical simulated outputs, writes
// the spans under .bench_build/spans, prints a per-layer self-time
// table and reports the per-layer metrics of metrics.go instead, each
// printed with the end-to-end metric it should move.
//
// Runs are sized by work: each round repeats a fixed amount of work
// (a pass over the paper's tables, one cluster run, one server
// session) until --seconds have elapsed, and the reported figures are
// medians over rounds. A forced GC precedes every timed phase so one
// phase's garbage is not charged to the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// benchWorkload is one named input set. run performs rounds until the
// budget is spent, at least one; tr is nil on untraced runs.
type benchWorkload struct {
	name string
	why  string
	run  func(seed uint64, budget time.Duration, tr *tracer) (*outcome, error)
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	attempted, failed int
	// values holds end-to-end metrics (untraced) or per-layer ones.
	values map[string]float64
	// info lines are printed above the result for a human reader.
	info []string
	// fingerprint is the simulated output the traced run must
	// reproduce exactly.
	fingerprint any
	// ops counts the operations the run's spans cover.
	ops int
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// checkSame counts a failure unless got is identical to want, the
// simulated output an earlier pass, round or run produced.
func checkSame(o *outcome, what string, want, got any) {
	if !reflect.DeepEqual(want, got) {
		o.fail("%s differs from the reference", what)
	}
}

var workloads = []benchWorkload{paperEval, clusterBatch, serveIngest, serveObserved}

func lookup(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs w and assembles the result line. A traced measurement
// spends half the budget on a bare reference run, then traces exactly
// one round so the span log stays bounded.
func measure(w benchWorkload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	if !traced {
		o, err := w.run(seed, budget, nil)
		if err != nil {
			return nil, err
		}
		printInfo(w, o)
		return assemble(o, endToEnd)
	}
	ref, err := w.run(seed, budget/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	gc0 := gcCPU()
	o, err := w.run(seed, 0, tr)
	if err != nil {
		return nil, err
	}
	o.values["runtime.gc_cpu_frac"] = gcCPU().since(gc0)
	o.attempted += ref.attempted
	o.failed += ref.failed
	checkSame(o, "traced simulated output", ref.fingerprint, o.fingerprint)
	o.values["tracing.ops_per_s_delta"] = o.values["ops_per_s"] - ref.values["ops_per_s"]
	self := tr.selfTime()
	for _, l := range selfLayers {
		o.values["layer."+l+".self_us_per_op"] = float64(self[l].Nanoseconds()) / 1e3 / float64(max(o.ops, 1))
	}
	path, err := tr.writeSpans(".bench_build/spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	printInfo(w, o)
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	printSelfTime(os.Stdout, self, o.ops)
	return assemble(o, perLayer)
}

func printInfo(w benchWorkload, o *outcome) {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	for _, l := range o.info {
		fmt.Println(l)
	}
}

// assemble picks the declared metrics out of the outcome; a metric the
// workload never set reads 0.
func assemble(o *outcome, decl []metric) (*result, error) {
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]value, len(decl)),
	}
	for _, m := range decl {
		v := o.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		r.Metrics[m.name] = value{Value: v, Unit: m.unit}
		if v != 0 {
			fmt.Printf("%-40s %16.6g %-6s %s\n", m.name, v, m.unit, m.moves)
		}
	}
	return r, nil
}

// fence forces a collection so the next timed phase starts from a
// clean heap and is not charged for earlier garbage.
func fence() { runtime.GC() }

// mallocs reports the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapLiveMB reports the live heap after a forced GC, in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuSample reads the GC and total CPU-seconds counters.
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// since is the share of CPU time spent in GC between s0 and s.
func (s cpuSample) since(s0 cpuSample) float64 {
	if d := s.total - s0.total; d > 0 {
		return (s.gc - s0.gc) / d
	}
	return 0
}

// The benchmark keeps its own order statistics instead of using
// internal/stats, so a change to the program's percentile code cannot
// change how the benchmark measures it.

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rounds repeats round until budget has elapsed and at least minRounds
// rounds ran.
func rounds(budget time.Duration, minRounds int, round func(i int) error) error {
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// timeSetup measures one set-up: it takes n samples, each a forced GC
// followed by reps back-to-back builds, and returns the median of the
// per-build durations in seconds. Several reps per sample keep a
// set-up far shorter than the clock's jitter measurable.
func timeSetup(n, reps int, build func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		fence()
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := build(); err != nil {
				return 0, err
			}
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(reps))
	}
	return median(xs), nil
}
