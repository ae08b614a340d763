package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Parent is the index of the enclosing span (-1 at the root);
// Op groups every span of one operation (a table, a job, an epoch).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: the program
// module the call enters.
func (s *span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time; a nil tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(op int64, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTime sums, per layer, each span's duration minus the time its
// direct children cover. Children of one span run sequentially on the
// tracing goroutine, so their durations do not overlap.
func (t *tracer) selfTime() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i := range t.spans {
		out[t.spans[i].layer()] += time.Duration(self[i])
	}
	return out
}

// writeSpans stores the spans as one JSON array under dir.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// printSelfTime renders the per-layer self-time table, busiest first.
func printSelfTime(w io.Writer, self map[string]time.Duration, ops int) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	var total time.Duration
	for _, d := range self {
		total += d
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tself_ms\tshare\tself_us_per_op\t")
	for _, l := range layers {
		d := self[l]
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t%.3f\t\n", l, msOf(d), 100*float64(d)/float64(max(total, 1)),
			float64(d.Microseconds())/float64(max(ops, 1)))
	}
	tw.Flush()
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
