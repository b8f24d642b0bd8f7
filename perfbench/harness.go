package main

import (
	"fmt"
	"sort"
	"time"
)

// setupReps is how many times each run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupReps = 3

// setupMedian builds a workload's environment setupReps times, closing all
// but the last, and returns the last with the median build time in
// seconds. Every build must produce the same quality record (the colorings
// set-up computes), or the inputs or the program are not deterministic.
func setupMedian[E any](build func() (E, error), closeEnv func(E), quality func(E) string) (E, float64, error) {
	var env E
	var times []float64
	first := ""
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			var zero E
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
		q := quality(e)
		if i == 0 {
			first = q
		} else if q != first {
			closeEnv(env)
			var zero E
			return zero, 0, fmt.Errorf("set-up %d produced quality record %s, set-up 1 produced %s", i+1, q, first)
		}
	}
	sort.Float64s(times)
	return env, times[len(times)/2], nil
}

// phaseFunc runs one measured phase of length d. tr is nil for an
// untraced phase; idx numbers the phases of a run from 0.
type phaseFunc func(idx int, tr *tracer, d time.Duration) (phase, error)

// runPhases runs the measured phases of cfg. Untraced, it is one phase of
// cfg.seconds. Traced, the same time is split: an untraced half, whose
// numbers are the overhead baseline, then a traced half that records
// spans. tr is nil for an untraced run.
func runPhases(cfg runConfig, fn phaseFunc) (main, traced phase, tr *tracer, err error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		main, err = fn(0, nil, total)
		return main, phase{}, nil, err
	}
	if main, err = fn(0, nil, total/2); err != nil {
		return
	}
	tr = newTracer()
	traced, err = fn(1, tr, total-total/2)
	return main, traced, tr, err
}

// endToEndMetrics assembles the untraced phase's user-visible metrics.
// simMcycles and colors describe the workload's quality set: the fixed,
// seed-determined colorings every run checks.
func endToEndMetrics(setupS float64, p phase, simMcycles float64, colors int) map[string]float64 {
	return map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     p.opsPerSec,
		"p50_ms":        p.p50,
		"p99_ms":        p.p99,
		"goodput_ops_s": p.goodput,
		"ok_ratio":      ratio(float64(p.attempted-p.failed), float64(p.attempted)),
		"sim_mcycles":   simMcycles,
		"colors":        float64(colors),
		"heap_mb":       p.heapMB,
	}
}

// layerMetrics starts a traced run's per-layer map with every metric at 0
// (layers the workload does not run stay there) and the harness metrics
// filled in.
func layerMetrics(untraced, traced phase, genLateP99 float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["harness.gen_late_p99_ms"] = genLateP99
	// Overhead of tracing: traced minus untraced mean latency, as a share
	// of the untraced mean, both measured in this run.
	m["harness.trace_overhead_pct"] = 100 * ratio(traced.meanMS-untraced.meanMS, untraced.meanMS)
	return m
}

// allocMetrics reports the traced phase's allocations per operation. They
// are process-wide, so they include the benchmark's own client work.
func allocMetrics(m map[string]float64, traced phase) {
	m["serve.allocs_per_op"] = ratio(float64(traced.mallocs), float64(traced.attempted))
	m["serve.bytes_per_op"] = ratio(float64(traced.bytes), float64(traced.attempted))
}

// finish fills the parts of an outcome every workload shares.
// extraErrs are check failures found outside the measured operations.
func finish(untraced, traced phase, metrics map[string]float64, params map[string]any, extraErrs []string) *outcome {
	out := &outcome{
		attempted: untraced.attempted + traced.attempted,
		failed:    untraced.failed + traced.failed,
		checkErrs: append(append(append([]string(nil), untraced.checkErrs...), traced.checkErrs...), extraErrs...),
		metrics:   metrics,
		params:    params,
	}
	params["p99_ms_percentile"] = fmt.Sprintf("p%.2f of %d samples", 100*untraced.p99q, untraced.okOps)
	if len(untraced.windows) > 1 {
		params["windows"] = fmt.Sprintf("%d, ops/s %.4g (ops_per_s, goodput_ops_s and p50_ms are medians over them)", len(untraced.windows), untraced.windows)
	}
	params["measured_s"] = untraced.elapsed.Seconds() + traced.elapsed.Seconds()
	return out
}
