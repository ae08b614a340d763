package experiments

import (
	"fmt"

	"micstream/internal/cluster"
)

func init() {
	register("stealing", Stealing)
}

// stealingScenarios extends the placement study's imbalance grid with
// the stranded mix at a deep committed queue (depth 16), which freezes
// placement decisions long before the mix's imbalance has played out.
var stealingScenarios = []struct {
	name  string
	cfg   cluster.ScenarioConfig
	depth int
}{
	{"moderate", moderateMix, 8},
	{"severe", severeMix, 8},
	{"stranded", strandedMix, 16},
}

// stealingRow is one scenario's seed-averaged measurements.
type stealingRow struct {
	name                  string
	pred, steal, static2x float64 // mean makespan [ms]
	steals                float64 // mean steals per run
	projected             float64 // static-best / devices: the linear projection
	gapClosed             float64 // share of (pred − projected) recovered; NaN when pred ≤ projected
}

// runStealingCell executes one (configuration, seed) cell on the same
// 2-device platform as the placement study.
func runStealingCell(scIdx int, seed uint64, place cluster.Policy, steal bool) (*cluster.Result, error) {
	sc := stealingScenarios[scIdx]
	opts := []cluster.Option{cluster.WithPlacement(place), cluster.WithQueueDepth(sc.depth)}
	if steal {
		opts = append(opts, cluster.WithStealing(0))
	}
	return runCluster(2, scenario(sc.cfg, seed), opts...)
}

// runStealingStudy measures every scenario, seed-averaged; the
// experiments tests assert the acceptance contract on these rows.
func runStealingStudy() ([]stealingRow, error) {
	const seeds = 5
	rows := make([]stealingRow, 0, len(stealingScenarios))
	for scIdx, sc := range stealingScenarios {
		m, err := seedMeans(seeds, func(seed uint64) ([]float64, error) {
			rp, err := runStealingCell(scIdx, seed, cluster.Predicted(), false)
			if err != nil {
				return nil, err
			}
			rs, err := runStealingCell(scIdx, seed, cluster.Predicted(), true)
			if err != nil {
				return nil, err
			}
			best, err := staticBest(sc.cfg, seed, sc.depth)
			if err != nil {
				return nil, err
			}
			return []float64{rp.Makespan.Milliseconds(), rs.Makespan.Milliseconds(),
				best.Milliseconds(), float64(rs.Steals)}, nil
		})
		if err != nil {
			return nil, err
		}
		row := stealingRow{name: sc.name, pred: m[0], steal: m[1], static2x: m[2], steals: m[3]}
		row.projected = row.static2x / 2
		if gap := row.pred - row.projected; gap > 0 {
			row.gapClosed = (row.pred - row.steal) / gap
		} else {
			row.gapClosed = -1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Stealing regenerates the work-stealing study: predicted placement
// with drain-instant re-binding against predicted-only and the best
// static single-device pinning, on the placement study's imbalanced
// mixes plus the stranded Fig. 11 mix. "projected" is the best static
// pinning's linear two-device projection — the scaling the paper's §VI
// would predict without staging or placement mistakes — and
// "gap-closed" is the share of predicted placement's remaining
// distance to that projection which stealing recovers. On the
// stranded mix, commitment freezes work behind device 0's queue while
// device 1 drains, and re-binding at drain instants (with the staging
// term re-charged on the new link) closes over half the remaining gap;
// on the milder mixes predicted placement already beats the projection
// and stealing safely idles (the ROADMAP's "gap placement mistakes
// leave", measured).
func Stealing() (*Table, error) {
	rows, err := runStealingStudy()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "stealing",
		Title:   "Work stealing: mean makespan [ms] with drain-instant re-binding of committed jobs",
		Columns: []string{"scenario", "predicted", "+stealing", "steals/run", "static-best", "projected", "gap-closed"},
		Notes: []string{
			"2 MICs × 2 partitions × 2 streams, bursty arrivals; moderate/severe use queue depth 8, stranded (all inputs on device 0, 8 MiB staging) depth 16",
			"projected = best static single-device pinning / 2 devices (the linear Fig. 11 projection); gap-closed = (predicted − stealing) / (predicted − projected)",
			"— means predicted placement already beats the projection, so there is no gap left to close",
		},
	}
	for _, r := range rows {
		closed := "—"
		if r.gapClosed >= 0 {
			closed = fmt.Sprintf("%.0f%%", r.gapClosed*100)
		}
		t.Rows = append(t.Rows, []string{
			r.name, fmtMS(r.pred), fmtMS(r.steal), fmt.Sprintf("%.1f", r.steals),
			fmtMS(r.static2x), fmtMS(r.projected), closed,
		})
	}
	t.Notes = append(t.Notes, "each cell averages 5 seeded runs; repeats are bit-identical")
	return t, nil
}
