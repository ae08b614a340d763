package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"micstream/internal/core"
	"micstream/internal/device"
	"micstream/internal/experiments"
	"micstream/internal/hstreams"
	"micstream/internal/workload"
)

// paperDigests holds the SHA-256 of each table's rendered text, as the
// paper tables read when this benchmark was defined.
//
//go:embed paper_digests.json
var paperDigestsJSON []byte

var paperEval = benchWorkload{
	name: "paper-eval",
	why:  "regenerates the paper's Fig. 5-10 tables: all work is in sim/hstreams/device/pcie/trace/core/apps, none in sched/cluster/serve/observers",
	run:  runPaper,
}

// runPaper times whole passes over the paper's tables. The seed fixes
// the order tables run in; the tables themselves are the paper's
// fixed inputs, so every pass must reproduce the recorded digests.
func runPaper(seed uint64, budget time.Duration, tr *tracer) (*outcome, error) {
	var want map[string]string
	if err := json.Unmarshal(paperDigestsJSON, &want); err != nil {
		return nil, fmt.Errorf("paper digests: %w", err)
	}
	order := shuffled(paperTables, seed)
	o := &outcome{values: map[string]float64{}}
	// Set-up resolves the pass's generators and builds the paper's
	// testbed at every candidate partition count of its §V-C search.
	gens := make([]experiments.Generator, len(order))
	var err error
	o.values["setup_s"], err = timeSetup(15, 50, func() error {
		for i, id := range order {
			g, ok := experiments.Lookup(id)
			if !ok {
				return fmt.Errorf("experiment %q is not registered", id)
			}
			gens[i] = g
		}
		for _, p := range core.CandidatePartitions(device.Xeon31SP()) {
			if _, err := hstreams.Init(hstreams.Config{Partitions: p, Trace: true}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	minRounds := 1
	if tr == nil {
		minRounds = 2 // digests must agree across passes
	}
	var rates, allocs, heaps []float64
	var first map[string]string
	err = rounds(budget, minRounds, func(pass int) error {
		got := make(map[string]string, len(order))
		fence()
		m0 := mallocs()
		t0 := time.Now()
		for k, g := range gens {
			id := order[k]
			var a0 uint64
			if tr != nil {
				a0 = mallocs()
			}
			sp := tr.begin(int64(pass*len(gens)+k), "experiments."+id)
			t1 := time.Now()
			tab, err := g()
			dt := time.Since(t1)
			tr.end(sp)
			if tr != nil {
				o.values["experiments."+id+".s"] += dt.Seconds()
				o.values["experiments."+id+".allocs"] += float64(mallocs() - a0)
			}
			o.attempted++
			got[id] = checkTable(o, id, tab, err, want[id])
		}
		elapsed := time.Since(t0)
		allocs = append(allocs, float64(mallocs()-m0)/float64(len(gens)))
		rates = append(rates, float64(len(gens))/elapsed.Seconds())
		heaps = append(heaps, heapLiveMB())
		if first == nil {
			first = got
		} else {
			checkSame(o, fmt.Sprintf("pass %d table digests", pass), first, got)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.values["ops_per_s"] = median(rates)
	o.values["allocs_per_op"] = median(allocs)
	o.values["heap_live_mb"] = median(heaps)
	o.fingerprint = first
	o.ops = len(gens) * len(rates)
	o.info = append(o.info, fmt.Sprintf("passes %d over %d tables, %.3f tables/s median", len(rates), len(gens), median(rates)))
	if tr != nil {
		for _, id := range paperTables {
			o.values["experiments."+id+".s"] /= float64(len(rates))
			o.values["experiments."+id+".allocs"] /= float64(len(rates))
		}
		if err := tiledPhase(o, tr, int64(o.ops)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkTable counts a failure unless the generator succeeded and the
// table renders to its recorded digest, and returns the digest.
func checkTable(o *outcome, id string, tab *experiments.Table, err error, want string) string {
	if err != nil {
		o.fail("%s: %v", id, err)
		return ""
	}
	got := tableDigest(tab)
	if got != want {
		o.fail("%s: digest %s, recorded %s", id, got, want)
	}
	return got
}

// tableDigest hashes a table's rendered text.
func tableDigest(t *experiments.Table) string {
	h := sha256.New()
	if err := t.Fprint(h); err != nil {
		panic(err) // hash.Hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shuffled returns a seeded permutation of ids.
func shuffled(ids []string, seed uint64) []string {
	out := append([]string(nil), ids...)
	rng := workload.NewRNG(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// tiledPhase drives a Fig. 5-7-shaped phase — tiled H2D, kernel, D2H
// over four partitions — through the pipeline layer directly, timing
// enqueue, the barrier that runs the event engine, and the trace
// summary separately.
func tiledPhase(o *outcome, tr *tracer, op int64) error {
	const reps, tiles, tileBytes = 20, 256, 64 << 10
	var enqueue, barrier, summarize time.Duration
	var steps, spans uint64
	for r := 0; r < reps; r++ {
		ctx, err := hstreams.Init(hstreams.Config{Partitions: 4, Trace: true})
		if err != nil {
			return err
		}
		in := hstreams.AllocVirtual(ctx, "phase/in", tiles*tileBytes, 1)
		out := hstreams.AllocVirtual(ctx, "phase/out", tiles*tileBytes, 1)
		tasks := make([]*core.Task, tiles)
		for k := range tasks {
			tasks[k] = &core.Task{
				ID:         k,
				H2D:        []core.TransferSpec{core.Xfer(in, k*tileBytes, tileBytes)},
				Cost:       device.KernelCost{Name: "phase", Flops: 4e7, Bytes: 2 * tileBytes},
				D2H:        []core.TransferSpec{core.Xfer(out, k*tileBytes, tileBytes)},
				StreamHint: -1,
			}
		}
		s0, n0 := ctx.Engine().Steps(), ctx.Recorder().Len()
		fence()
		start := ctx.Now()
		sp := tr.begin(op+int64(r), "core.EnqueuePhase")
		t0 := time.Now()
		if _, err := core.EnqueuePhase(ctx, tasks); err != nil {
			return err
		}
		t1 := time.Now()
		tr.end(sp)
		sp = tr.begin(op+int64(r), "sim.Barrier")
		end := ctx.Barrier()
		t2 := time.Now()
		tr.end(sp)
		sp = tr.begin(op+int64(r), "trace.Summarize")
		res := core.Summarize(ctx, 4e7*tiles, end.Sub(start))
		t3 := time.Now()
		tr.end(sp)
		if res.Wall <= 0 || res.OverlapFraction <= 0 || res.OverlapFraction > 1 {
			o.fail("tiled phase: wall %v, overlap %g", res.Wall, res.OverlapFraction)
		}
		o.attempted++
		enqueue += t1.Sub(t0)
		barrier += t2.Sub(t1)
		summarize += t3.Sub(t2)
		steps += ctx.Engine().Steps() - s0
		spans += uint64(ctx.Recorder().Len() - n0)
	}
	n := float64(reps * tiles)
	o.values["core.enqueue_ns_per_task"] = float64(enqueue.Nanoseconds()) / n
	o.values["sim.barrier_ns_per_step"] = float64(barrier.Nanoseconds()) / float64(steps)
	o.values["sim.steps_per_task"] = float64(steps) / n
	o.values["trace.spans_per_task"] = float64(spans) / n
	o.values["trace.summarize_us"] = float64(summarize.Microseconds()) / reps
	return nil
}
