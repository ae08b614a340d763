// Package slo is the judgment layer over the telemetry stream: tenants
// declare objectives — latency percentile targets, per-job deadlines
// with miss budgets, throughput floors — and the evaluator turns the
// existing event log into compliance verdicts: windowed error budgets,
// Google-SRE-style multi-window burn rates, alert episodes, and
// per-violation causal attribution through the obs timeline folder
// (was the breach place-wait, commit-wait, exec, or migration
// dominated?).
//
// Everything is evaluated deterministically at drain instants in
// virtual time: violations are detected on Complete events, budgets
// and burn rates re-evaluated on each drain-instant MetricsSnapshot,
// and every window is a span of virtual nanoseconds — so two runs of
// the same seed produce byte-identical SLO_<run>.json reports, and an
// SLO-evaluated run's Result stays bit-identical to a bare one (the
// evaluator is a pure consumer on the far side of the recorder,
// exactly like the rest of the observability stack).
//
// The budget math follows the SRE workbook form. Each objective
// declares a Target good fraction (e.g. 0.95: "95% of jobs complete
// within the threshold"); the error budget is the 1−Target bad
// fraction it tolerates. The burn rate over a window is
// badFraction(window) / (1−Target): burning at exactly 1 exhausts the
// budget at the objective's horizon, 14 means fourteen times too
// fast. An alert fires when BOTH the fast and the slow window burn
// above their thresholds (the fast window makes the alert responsive,
// the slow window keeps a transient spike from paging) and clears
// when the fast burn drops back under. Budget remaining is the
// cumulative form: 1 − (bad/total)/(1−Target), 1 with an untouched
// budget, ≤ 0 once the run has spent more than its tolerated bad
// fraction — the exhaustion instant fires the flight-recorder hook.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"micstream/internal/sim"
	"micstream/internal/telemetry"
)

// Objective kinds. A latency objective judges every completed job of
// the tenant against Threshold (Target 0.95 with a 10ms threshold is
// "p95 ≤ 10ms" restated as a good-event ratio); a deadline objective
// judges each job against its own declared relative deadline (falling
// back to Threshold for jobs without one; jobs with neither are not
// sampled); a throughput objective integrates breach time — the
// virtual-time fraction during which the tenant's windowed completion
// rate sat below Floor.
const (
	KindLatency    = "latency"
	KindDeadline   = "deadline"
	KindThroughput = "throughput"
)

// Default windows and burn thresholds, applied by Normalize when a
// spec leaves them zero. The virtual runs the reproduction drives are
// tens to hundreds of milliseconds long, so the defaults are scaled
// to that horizon (the SRE workbook's 5m/1h windows, shrunk): a 20ms
// fast window with a 100ms slow window, alerting at 14× / 6× burn.
const (
	DefaultFastWindow = 20 * sim.Duration(time.Millisecond)
	DefaultSlowWindow = 100 * sim.Duration(time.Millisecond)
	DefaultFastBurn   = 14.0
	DefaultSlowBurn   = 6.0
	DefaultTarget     = 0.95
)

// Objective is one tenant's declared service-level objective.
type Objective struct {
	// Tenant is the tenant label the objective judges ("" is the
	// "default" tenant, matching the schedulers' labeling).
	Tenant string
	// Name identifies the objective in reports, metrics labels and
	// alerts; unique within a spec.
	Name string
	// Kind is KindLatency, KindDeadline or KindThroughput.
	Kind string
	// Target is the good fraction the objective promises, in (0,1):
	// 0.95 tolerates 5% bad events (the error budget).
	Target float64
	// Threshold is the per-job latency budget for latency objectives
	// and the default relative deadline for deadline objectives
	// (ignored by throughput objectives).
	Threshold sim.Duration
	// Floor is the throughput floor in completed jobs per virtual
	// second (throughput objectives only).
	Floor float64
	// FastWindow and SlowWindow are the two burn-rate windows in
	// virtual time; FastBurn and SlowBurn the burn thresholds both of
	// which must be exceeded for an alert to fire.
	FastWindow, SlowWindow sim.Duration
	FastBurn, SlowBurn     float64
}

// TenantLabel normalizes an objective's tenant to the schedulers'
// accounting label (empty means "default").
func (o *Objective) TenantLabel() string { return telemetry.TenantLabel(o.Tenant) }

// Spec is a set of objectives, evaluated together over one run.
type Spec struct {
	// Objectives lists the declared objectives in declaration order —
	// the order every report and metrics exposition preserves.
	Objectives []Objective
}

// Normalize applies defaults and validates the spec, returning the
// first problem found. A normalized spec has every window, burn
// threshold and target filled in.
func (s *Spec) Normalize() error {
	if len(s.Objectives) == 0 {
		return fmt.Errorf("slo: spec declares no objectives")
	}
	seen := make(map[string]bool, len(s.Objectives))
	for i := range s.Objectives {
		o := &s.Objectives[i]
		if o.Name == "" {
			return fmt.Errorf("slo: objective %d has no name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		switch o.Kind {
		case KindLatency:
			if o.Threshold <= 0 {
				return fmt.Errorf("slo: objective %q: latency objectives need a positive threshold", o.Name)
			}
		case KindDeadline:
			if o.Threshold < 0 {
				return fmt.Errorf("slo: objective %q: negative deadline threshold", o.Name)
			}
		case KindThroughput:
			if o.Floor <= 0 {
				return fmt.Errorf("slo: objective %q: throughput objectives need a positive floor", o.Name)
			}
		default:
			return fmt.Errorf("slo: objective %q: unknown kind %q (want %s, %s or %s)",
				o.Name, o.Kind, KindLatency, KindDeadline, KindThroughput)
		}
		if o.Target == 0 {
			o.Target = DefaultTarget
		}
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("slo: objective %q: target %v outside (0,1)", o.Name, o.Target)
		}
		if o.FastWindow == 0 {
			o.FastWindow = DefaultFastWindow
		}
		if o.SlowWindow == 0 {
			o.SlowWindow = DefaultSlowWindow
		}
		if o.FastWindow <= 0 || o.SlowWindow <= 0 {
			return fmt.Errorf("slo: objective %q: windows must be positive", o.Name)
		}
		if o.FastWindow > o.SlowWindow {
			return fmt.Errorf("slo: objective %q: fast window %v exceeds slow window %v", o.Name, o.FastWindow, o.SlowWindow)
		}
		if o.FastBurn == 0 {
			o.FastBurn = DefaultFastBurn
		}
		if o.SlowBurn == 0 {
			o.SlowBurn = DefaultSlowBurn
		}
		if o.FastBurn <= 0 || o.SlowBurn <= 0 {
			return fmt.Errorf("slo: objective %q: burn thresholds must be positive", o.Name)
		}
	}
	return nil
}

// objectiveJSON is the declarative file form of one objective:
// durations are Go duration strings ("10ms"), interpreted as virtual
// time.
type objectiveJSON struct {
	Tenant     string  `json:"tenant"`
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`
	Target     float64 `json:"target"`
	Threshold  string  `json:"threshold"`
	Floor      float64 `json:"floor_jobs_per_s"`
	FastWindow string  `json:"fast_window"`
	SlowWindow string  `json:"slow_window"`
	FastBurn   float64 `json:"fast_burn"`
	SlowBurn   float64 `json:"slow_burn"`
}

type specJSON struct {
	Objectives []objectiveJSON `json:"objectives"`
}

// ParseSpec decodes a declarative spec file. Unknown fields are
// rejected — a typoed key must not silently drop an objective — and
// the result is normalized (defaults applied, constraints checked).
// Parsing is config input, not run output: encoding/json here cannot
// perturb the byte-determinism of the reports.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var raw specJSON
	if err := dec.Decode(&raw); err != nil {
		return Spec{}, fmt.Errorf("slo: parse spec: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil {
		return Spec{}, fmt.Errorf("slo: parse spec: trailing data after the spec object")
	}
	spec := Spec{Objectives: make([]Objective, len(raw.Objectives))}
	for i, ro := range raw.Objectives {
		o := Objective{
			Tenant:   ro.Tenant,
			Name:     ro.Name,
			Kind:     ro.Kind,
			Target:   ro.Target,
			Floor:    ro.Floor,
			FastBurn: ro.FastBurn,
			SlowBurn: ro.SlowBurn,
		}
		var err error
		if o.Threshold, err = parseDur(ro.Threshold); err != nil {
			return Spec{}, fmt.Errorf("slo: objective %q: threshold: %w", ro.Name, err)
		}
		if o.FastWindow, err = parseDur(ro.FastWindow); err != nil {
			return Spec{}, fmt.Errorf("slo: objective %q: fast_window: %w", ro.Name, err)
		}
		if o.SlowWindow, err = parseDur(ro.SlowWindow); err != nil {
			return Spec{}, fmt.Errorf("slo: objective %q: slow_window: %w", ro.Name, err)
		}
		spec.Objectives[i] = o
	}
	if err := spec.Normalize(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// LoadSpec reads and parses a declarative spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("slo: %w", err)
	}
	return ParseSpec(data)
}

func parseDur(s string) (sim.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(d.Nanoseconds()), nil
}

// sortedPhases returns a phase-count map's keys in sorted order (the
// deterministic rendering order for attribution histograms).
func sortedPhases(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	// order-independent: collecting keys for the sort below.
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
