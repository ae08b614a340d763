package experiments

import (
	"micstream/internal/cluster"
	"micstream/internal/hstreams"
	"micstream/internal/sim"
	"micstream/internal/stats"
)

// clusterSeed fixes the arrival and size streams of every scheduler
// and cluster study; with it, every cell is a pure function of the
// code.
const clusterSeed = 2016

// The shared mixes, one literal each. moderateMix and severeMix are
// the placement study's skewed rows: spread is the geometric job-size
// range, affinity the device-resident fraction, xfer the per-job
// transfer (and staging) volume. strandedMix is the Fig. 11 shape
// pushed to where eager commitment hurts: every job's inputs live on
// device 0 and staging is expensive. datasetMix is its
// repeated-dataset version: every job cycles through four shared
// datasets homed on device 0, so most of a cache-less cluster's
// staging re-ships bytes an earlier job already moved. Studies derive
// variants with withTiles and never edit these values in place.
var (
	moderateMix = cluster.ScenarioConfig{
		Arrival: "bursty", SizeSpread: 8, AffinityFraction: 0.5,
		Origins: []int{0, 1}, XferBytes: 4 << 20, WindowNs: 10_000_000,
	}
	severeMix = cluster.ScenarioConfig{
		Arrival: "bursty", SizeSpread: 8, AffinityFraction: 0.7,
		Origins: []int{0, 1}, XferBytes: 8 << 20, WindowNs: 15_000_000,
	}
	strandedMix = cluster.ScenarioConfig{
		Arrival: "bursty", SizeSpread: 4, AffinityFraction: 1,
		Origins: []int{0}, XferBytes: 8 << 20, WindowNs: 10_000_000,
	}
	datasetMix = cluster.ScenarioConfig{
		Arrival: "bursty", SizeSpread: 4, AffinityFraction: 1,
		Origins: []int{0}, Datasets: 4, XferBytes: 8 << 20, WindowNs: 10_000_000,
	}
)

// withTiles returns a copy of mix whose jobs carry tiles tiles each.
func withTiles(mix cluster.ScenarioConfig, tiles int) cluster.ScenarioConfig {
	mix.TilesPerJob = tiles
	return mix
}

// jobsFn builds a cell's job list against its freshly initialised
// platform.
type jobsFn func(*hstreams.Context) ([]cluster.Job, error)

// scenario returns the job builder for cfg under seed.
func scenario(cfg cluster.ScenarioConfig, seed uint64) jobsFn {
	cfg.Seed = seed
	return func(ctx *hstreams.Context) ([]cluster.Job, error) {
		return cluster.BuildScenario(ctx, cfg)
	}
}

// runCluster runs one batch cell: a fresh platform of devices MICs ×
// 2 partitions × 2 streams, the jobs jobs builds on it, and a cluster
// configured by opts. Options carrying a placement policy hold per-run
// state, so callers build them per call.
func runCluster(devices int, jobs jobsFn, opts ...cluster.Option) (*cluster.Result, error) {
	ctx, err := hstreams.Init(hstreams.Config{Devices: devices, Partitions: 2, StreamsPerPartition: 2})
	if err != nil {
		return nil, err
	}
	js, err := jobs(ctx)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(ctx, opts...)
	if err != nil {
		return nil, err
	}
	return c.Run(js)
}

// arm declares one cluster configuration over a mix. Placement
// policies carry per-run state, so an arm holds the policy's
// constructor and stateless option setters only; run builds the policy
// per call.
type arm struct {
	name    string
	devices int
	mix     cluster.ScenarioConfig
	place   func() cluster.Policy
	opts    []cluster.Option
}

// run executes the arm under seed with more options appended.
func (a arm) run(seed uint64, more ...cluster.Option) (*cluster.Result, error) {
	opts := append([]cluster.Option{cluster.WithPlacement(a.place())}, a.opts...)
	return runCluster(a.devices, scenario(a.mix, seed), append(opts, more...)...)
}

// staticBest runs cfg pinned whole to each of two devices in turn at
// queue depth depth and returns the better makespan: the bound the
// predicted policy's contract is stated against.
func staticBest(cfg cluster.ScenarioConfig, seed uint64, depth int) (sim.Duration, error) {
	var best sim.Duration
	for d := 0; d < 2; d++ {
		r, err := runCluster(2, scenario(cfg, seed), cluster.WithPlacement(cluster.Static(d)), cluster.WithQueueDepth(depth))
		if err != nil {
			return 0, err
		}
		if best == 0 || r.Makespan < best {
			best = r.Makespan
		}
	}
	return best, nil
}

// seedMeans runs cell once for each of seeds consecutive seeds from
// clusterSeed and returns the mean of each value it reports, summed in
// seed order.
func seedMeans(seeds int, cell func(seed uint64) ([]float64, error)) ([]float64, error) {
	var cols [][]float64
	for s := 0; s < seeds; s++ {
		vals, err := cell(clusterSeed + uint64(s))
		if err != nil {
			return nil, err
		}
		if cols == nil {
			cols = make([][]float64, len(vals))
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
	}
	means := make([]float64, len(cols))
	for i, col := range cols {
		means[i] = stats.Mean(col)
	}
	return means, nil
}
