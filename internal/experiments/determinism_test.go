package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"micstream/internal/cluster"
)

// TestExperimentsDeterministicAcrossRepeats is the determinism
// regression suite: every registered experiment runs twice and the
// full tables must be byte-for-byte identical — any hidden map
// iteration, wall-clock read or shared-state leak in a generator
// shows up here (and, under CI's -race run, as a race). Table-level
// equality alone can mask compensating divergence inside a run, so
// TestStudyCellResultsDeterministic additionally diffs complete
// Result structs for one cell of each study.
//
// Repeat-equality cannot see a change that shifts every run the same
// way, so the first run's rendering is also pinned: the SHA-256 of its
// Table.Fprint bytes must match testdata/tables.sha256, one line per
// registered ID. The digests are recorded on linux/amd64; after an
// intended change to a table, regenerate the file with
//
//	go build -o micbench ./cmd/micbench
//	for id in $(./micbench -list); do
//		echo "$(./micbench -fig "$id" | sha256sum | cut -c1-64)  $id"
//	done > internal/experiments/testdata/tables.sha256
func TestExperimentsDeterministicAcrossRepeats(t *testing.T) {
	digests := tableDigests(t)
	for _, id := range IDs() {
		id := id
		g, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q vanished from the registry", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			first, err := g()
			if err != nil {
				t.Fatal(err)
			}
			second, err := g()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("experiment %q diverges across repeats", id)
			}
			var buf bytes.Buffer
			if err := first.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != digests[id] {
				t.Errorf("experiment %q renders with digest %s, testdata/tables.sha256 records %q:\n%s",
					id, got, digests[id], buf.String())
			}
		})
	}
}

// tableDigests reads testdata/tables.sha256 (sha256sum format:
// "<hex>  <id>") and fails unless it names exactly the registered IDs.
func tableDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/tables.sha256")
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		sum, id, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(sum) != sha256.Size*2 {
			t.Fatalf("testdata/tables.sha256: malformed line %q", sc.Text())
		}
		if _, dup := digests[id]; dup {
			t.Fatalf("testdata/tables.sha256: %q listed twice", id)
		}
		digests[id] = sum
	}
	var recorded []string
	for id := range digests {
		recorded = append(recorded, id)
	}
	sort.Strings(recorded)
	if ids := IDs(); !reflect.DeepEqual(recorded, ids) {
		t.Fatalf("testdata/tables.sha256 records %d tables %v, the registry has %d %v",
			len(recorded), recorded, len(ids), ids)
	}
	return digests
}

// TestStudyCellResultsDeterministic repeats one representative cell of
// each named study and diffs the complete Result struct — per-job
// outcomes, migration histories, device aggregates, tenant stats —
// not the formatted summary rows.
func TestStudyCellResultsDeterministic(t *testing.T) {
	cells := []struct {
		name string
		run  func(seed uint64) (any, error)
	}{
		{"fairness", func(seed uint64) (any, error) {
			return runSchedScenario("adaptive", "severe", seed)
		}},
		{"placement", func(seed uint64) (any, error) {
			return runPlacementCell("predicted", 2, seed)
		}},
		{"stealing", func(seed uint64) (any, error) {
			return runStealingCell(2, seed, cluster.Predicted(), true)
		}},
		{"residency", func(seed uint64) (any, error) {
			return runResidencyCell(cluster.Affinity(), true, seed)
		}},
		{"slicing", func(seed uint64) (any, error) {
			return runConvoyCell(seed, convoySliceCap)
		}},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			first, err := c.run(clusterSeed)
			if err != nil {
				t.Fatal(err)
			}
			second, err := c.run(clusterSeed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("%s cell diverges across repeats of seed %d", c.name, clusterSeed)
			}
			other, err := c.run(clusterSeed + 1)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(first, other) {
				t.Errorf("%s cell is seed-blind: seeds %d and %d coincide", c.name, clusterSeed, clusterSeed+1)
			}
		})
	}
}
