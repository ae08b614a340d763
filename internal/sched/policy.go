package sched

import (
	"fmt"
	"sort"
)

// fifo serves jobs strictly in admission order, packing onto the
// lowest-numbered idle stream. Its bounded-wait guarantee (no job is
// overtaken) is the starvation-freedom baseline the property tests
// assert.
type fifo struct{}

// FIFO returns the first-in-first-out policy.
func FIFO() Policy { return fifo{} }

// Name implements Policy.
func (fifo) Name() string { return "fifo" }

// Pick implements Policy.
func (fifo) Pick(pending []*Pending, idle []int, _ *View) (int, int) {
	return oldest(pending), idle[0]
}

// rr serves jobs in admission order but rotates placement across the
// partitions with a persistent cursor, spreading tenants over places
// instead of packing them — round-robin over partitions.
type rr struct {
	cursor int
}

// RoundRobin returns a round-robin-over-partitions policy. The cursor
// is per-run state: Run resets it, so sequential runs on one
// scheduler start placement from stream 0 like a fresh instance.
func RoundRobin() Policy { return &rr{} }

// Name implements Policy.
func (*rr) Name() string { return "rr" }

// reset implements resetter.
func (p *rr) reset() { p.cursor = 0 }

// resetter is implemented by stateful policies; Reset (and therefore
// Run) calls it so every run starts from the same policy state.
type resetter interface{ reset() }

// Pick implements Policy.
func (p *rr) Pick(pending []*Pending, idle []int, v *View) (int, int) {
	// The idle stream whose partition comes soonest at or after the
	// cursor, wrapping around the partition ring; ties (two idle
	// streams on that partition) go to the lowest stream id. Rotating
	// over partitions rather than stream ids is what spreads work
	// when several streams share a place.
	np := v.Partitions
	best, bestDist := idle[0], np+1
	for _, s := range idle {
		d := (v.StreamPartition[s] - p.cursor + np) % np
		if d < bestDist {
			best, bestDist = s, d
		}
	}
	p.cursor = (v.StreamPartition[best] + 1) % np
	return oldest(pending), best
}

// sjf is the cost-aware policy: shortest-job-first over the admission
// queue, least-loaded placement over the idle streams. Short jobs
// overtake long ones, which minimizes mean latency but can starve
// heavy tenants under sustained light-job pressure — exactly the
// trade-off the fairness experiment quantifies.
type sjf struct{}

// SJF returns the shortest-job-first / least-loaded policy.
func SJF() Policy { return sjf{} }

// Name implements Policy.
func (sjf) Name() string { return "sjf" }

// Pick implements Policy.
func (sjf) Pick(pending []*Pending, idle []int, v *View) (int, int) {
	job := 0
	for i, p := range pending {
		if p.Est < pending[job].Est ||
			(p.Est == pending[job].Est && p.Seq < pending[job].Seq) {
			job = i
		}
	}
	stream := idle[0]
	for _, s := range idle[1:] {
		if v.StreamLoad[s] < v.StreamLoad[stream] {
			stream = s
		}
	}
	return job, stream
}

// oldest returns the index of the lowest admission sequence number.
// The scheduler appends in admission order, so this is index 0; the
// scan keeps the policies correct even if a future queue mutates
// order.
func oldest(pending []*Pending) int {
	at := 0
	for i, p := range pending {
		if p.Seq < pending[at].Seq {
			at = i
		}
	}
	return at
}

// Policies lists the built-in policy names in stable order.
func Policies() []string {
	names := make([]string, 0, len(policyFactories))
	for name := range policyFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// policyFactories maps names to fresh-instance constructors; RR and
// adaptive are stateful, so ByName must return a new value each call.
var policyFactories = map[string]func() Policy{
	"fifo":     FIFO,
	"rr":       RoundRobin,
	"sjf":      SJF,
	"adaptive": Adaptive,
}

// ByName returns a fresh instance of a built-in policy: "fifo", "rr",
// "sjf", or "adaptive".
func ByName(name string) (Policy, error) {
	f, ok := policyFactories[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (have %v)", name, Policies())
	}
	return f(), nil
}
