// Command perfbench is gcolor's benchmark: one seeded command that runs a
// named workload against the program's public entry points, checks every
// coloring it gets back, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output.
//
//	bash perfbench/run.sh --workload paper-f7 --seed 1 --seconds 10 --trace 0
//
// Every input is generated here from --seed; the program under test only
// ever sees those generated inputs. Load is held to the host's core count:
// GOMAXPROCS = nproc, at most nproc client goroutines, one process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"goodput_ops_s", "ops/s"},
	{"ok_ratio", "ratio"},
	{"sim_mcycles", "Mcycles"},
	{"colors", "count"},
	{"heap_mb", "MiB"},
}

// perLayer are the per-layer metrics of the traced run. A layer a workload
// does not run reports 0.
var perLayer = []metricDef{
	{"graph.decode_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"graph.apply_delta_ms", "ms"},
	{"graph.frontier_vertices", "count"},
	{"kernel.host_ms", "ms"},
	{"kernel.sim_mcycles", "Mcycles"},
	{"kernel.host_ns_per_cycle", "ns/cycle"},
	{"kernel.iterations", "count"},
	{"kernel.simd_util", "ratio"},
	{"kernel.cu_imbalance", "ratio"},
	{"kernel.steals", "count"},
	{"kernel.alu_ops", "count"},
	{"kernel.mem_transactions", "count"},
	{"kernel.nondeterministic_cells", "count"},
	{"color.verify_ms", "ms"},
	{"color.recolor_frontier_ms", "ms"},
	{"color.recolored_vertices", "count"},
	{"color.cpu_ref_ms", "ms"},
	{"shard.partition_ms", "ms"},
	{"shard.merge_repair_ms", "ms"},
	{"shard.conflicts", "count"},
	{"shard.recolored", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.batch_size", "count"},
	{"serve.batched_share", "ratio"},
	{"serve.device_util", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"serve.queue_full_ratio", "ratio"},
	{"serve.delta_hit_ratio", "ratio"},
	{"serve.versions_resident", "count"},
	{"serve.allocs_per_op", "count"},
	{"serve.bytes_per_op", "B"},
	{"journal.appends_per_op", "count"},
	{"journal.bytes_per_op", "B"},
	{"journal.fsyncs_per_s", "1/s"},
	{"cluster.coord_self_ms", "ms"},
	{"cluster.worker_ms", "ms"},
	{"cluster.wire_bytes_per_op", "B"},
	{"cluster.scattered_share", "ratio"},
	{"cluster.cache_hit_ratio", "ratio"},
	{"cluster.redispatches", "count"},
	{"harness.gen_late_p99_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
}

// size scales every workload: full is the benchmark, tiny is the smoke
// test size.
type size int

const (
	full size = iota
	tiny
)

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	size     size
	traceOut string // span export path; "" skips the export
	workDir  string // scratch files (the delta-stream journal)
}

// outcome is a workload's answer: its counts, metric values by name, and
// the facts that describe how it ran.
type outcome struct {
	attempted int
	failed    int
	checkErrs []string
	metrics   map[string]float64
	params    map[string]any // workload parameters, stamped into the record
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"paper-f7", "the paper's F7 matrix called straight into gpucolor on one simulator worker: the simulator and kernels do the work and no serving layer runs", runPaperF7},
		{"serve-mix", "open-loop small graphs into one in-process gcolord: mostly repeats, so the median is the cache-hit path and the tail the queue and kernel", runServeMix},
		{"delta-stream", "one closed-loop client sending GCSD deltas on a journaled resident chain: frontier recolor, ApplyDelta and journal appends; the kernel runs only on fallbacks", runDeltaStream},
		{"fleet-scatter", "one closed-loop client into a coordinator and two workers over loopback: the only workload that runs routing, partition, wire hops and merge repair", runFleetScatter},
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "directory for scratch files and the exported spans of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for _, w := range workloads() {
		if w.name == *name {
			w := w
			wl = &w
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload <%s>, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, size: full, workDir: *workDir}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.trace {
		cfg.traceOut = filepath.Join(*workDir, fmt.Sprintf("perfbench-trace-%s-%d.json", wl.name, *seed))
	}
	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	stamp(wl, cfg, out)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := resultLine(out, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if len(out.checkErrs) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// resultLine renders the final JSON line with exactly the metrics in defs.
func resultLine(out *outcome, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("workload did not report %s", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if out.attempted < 1 {
		return "", errors.New("workload attempted no operation")
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(out.checkErrs) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	return string(b), err
}

// stamp prints the record's host facts and workload parameters, one
// "# key: value" line each, ahead of the result line.
func stamp(wl *workload, cfg runConfig, out *outcome) {
	fmt.Printf("# workload: %s (%s)\n", wl.name, wl.why)
	fmt.Printf("# seed: %d  seconds: %g  trace: %v\n", cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit())
	keys := make([]string, 0, len(out.params))
	for k := range out.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# param %s: %v\n", k, out.params[k])
	}
	fmt.Printf("# ratio bases (all within this run): ok_ratio over operations attempted; serve.cache_hit_ratio over the server's cache lookups, other serve.* ratios over its requests or executed jobs in the traced phase; cluster.cache_hit_ratio over coordinator cache lookups, cluster.scattered_share over coordinator jobs; trace_overhead_pct over the untraced half's mean latency\n")
	fmt.Printf("# gen.BarabasiAlbert deterministic: %v\n", genDeterministic())
	fmt.Printf("# failed: %d of %d attempted (fail_ratio %.6f)\n", out.failed, out.attempted, ratio(float64(out.failed), float64(out.attempted)))
	for _, e := range out.checkErrs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
	if cfg.traceOut != "" {
		fmt.Printf("# spans: %s\n", cfg.traceOut)
	}
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
