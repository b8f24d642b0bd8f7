package main

import (
	"fmt"
	"strings"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// paperWG is F7's workgroup size (exp's fineWG).
const paperWG = 64

// paperWorkers is the simulator's phase-A parallelism for the timed
// cells. One worker keeps a cell's host time a property of the simulator:
// with one worker per core, every barrier waits on whichever core a
// shared host takes away. On a 2-vCPU VM, one busy-loop neighbour cut
// ops_per_s by 40% with a worker per core and by 19% with one worker.
// Scan compaction gives the same result at any worker count; the atomic
// cells run at the default, one worker per core, so their
// nondeterminism still shows.
const paperWorkers = 1

// paperLimit is the latency limit for paper-f7 goodput: the slowest cell
// (hybrid or baseline on rmat) takes well under a second of host time.
const paperLimit = 2 * time.Second

// cell is one coloring of the F7 matrix.
type cell struct {
	ds  int
	alg gpucolor.Algorithm
	pol simt.Policy
}

// paperCells is {baseline, hybrid} x {static, stealing} over every dataset,
// in FigHeadline's order.
func paperCells(datasets int) []cell {
	var cs []cell
	for d := 0; d < datasets; d++ {
		for _, a := range []gpucolor.Algorithm{gpucolor.AlgBaseline, gpucolor.AlgHybrid} {
			for _, p := range []simt.Policy{simt.Static, simt.Stealing} {
				cs = append(cs, cell{d, a, p})
			}
		}
	}
	return cs
}

// colorCell runs one cell on a fresh device with the given phase-A
// workers (0: one per core) and returns the result and its host time.
func colorCell(ds []dataset, c cell, seed uint32, cm gpucolor.CompactionMode, workers int) (*gpucolor.Result, time.Duration, error) {
	dev := simt.NewDevice()
	dev.WorkgroupSize = paperWG
	dev.Policy = c.pol
	dev.Workers = workers
	t0 := time.Now()
	res, err := gpucolor.Color(dev, ds[c.ds].g, c.alg, gpucolor.Options{Seed: seed, Compaction: cm})
	return res, time.Since(t0), err
}

func cellName(ds []dataset, c cell) string {
	return fmt.Sprintf("%s/%s/%s", ds[c.ds].name, c.alg, c.pol)
}

// kernelAcc sums the simulator's evidence over the traced phase.
type kernelAcc struct {
	cells                 int
	hostNS, cycles        int64
	iterations            int
	simd, imbalance       float64
	steals, alu, memTrans int64
}

func (k *kernelAcc) add(res *gpucolor.Result, host time.Duration) {
	k.cells++
	k.hostNS += int64(host)
	k.cycles += res.Cycles
	k.iterations += res.Iterations
	k.simd += res.SIMDUtilization()
	k.imbalance += cuImbalance(res.CUBusy)
	k.steals += res.Steals
	k.alu += res.ALUOps
	k.memTrans += res.MemTransactions
}

// cuImbalance is max over mean of the per-CU busy cycles.
func cuImbalance(busy []int64) float64 {
	var sum, max int64
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	return ratio(float64(max)*float64(len(busy)), float64(sum))
}

func runPaperF7(cfg runConfig) (*outcome, error) {
	type env struct{ ds []dataset }
	ds, setupS, err := setupMedian(func() (env, error) {
		return env{paperGraphs(cfg.size)}, nil
	}, func(env) {}, func(e env) string {
		var fps []string
		for _, d := range e.ds {
			fps = append(fps, graph.FingerprintString(d.g.Fingerprint()))
		}
		return strings.Join(fps, ",")
	})
	if err != nil {
		return nil, err
	}
	const prio = 1 // FigHeadline's default priority seed
	cells := paperCells(len(ds.ds))
	order := passOrder(cfg.seed, len(cells))

	// The determinism record: the first run of every cell fixes its digest
	// and every later run of it must repeat it exactly.
	type record struct {
		digest    uint64
		cycles    int64
		numColors int
	}
	ref := make([]*record, len(cells))
	check := func(i int, res *gpucolor.Result) error {
		if err := checkColoring(ds.ds[cells[i].ds].g, res.Colors, nil, res.NumColors); err != nil {
			return err
		}
		dg := digest(res.Colors, res.Cycles, res.Iterations)
		if ref[i] == nil {
			ref[i] = &record{dg, res.Cycles, res.NumColors}
		} else if ref[i].digest != dg {
			return fmt.Errorf("scan-compaction run differs from the cell's first run (cycles %d then %d)", ref[i].cycles, res.Cycles)
		}
		return nil
	}
	var acc kernelAcc
	next := 0 // cells run so far, across phases
	measure := func(idx int, tr *tracer, d time.Duration) (phase, error) {
		log := newOpLog(paperLimit)
		mem := readMem()
		// Whole passes only, so every phase and every window weighs each
		// cell equally. A window is one pass; the median and the tail are
		// taken over each cell's median across passes, so one slow pass
		// does not set them.
		var cuts []time.Duration
		perCell := make([][]float64, len(cells))
		for next%len(cells) != 0 || time.Since(log.start) < d || next < len(cells) {
			i := order[next%len(cells)]
			next++
			c := cells[i]
			t0 := time.Now()
			res, host, err := colorCell(ds.ds, c, prio, gpucolor.CompactionScan, paperWorkers)
			name := cellName(ds.ds, c)
			tr.record("kernel", name, "", t0, t0.Add(host))
			if err == nil {
				v0 := time.Now()
				err = check(i, res)
				tr.record("color.verify", name, "kernel", v0, time.Now())
				if err != nil {
					err = &checkError{err.Error()}
				}
			}
			if err != nil {
				_, isCheck := err.(*checkError)
				log.fail(isCheck, fmt.Sprintf("%s: %v", name, err))
			} else {
				if tr != nil {
					acc.add(res, host)
				}
				perCell[i] = append(perCell[i], ms(host))
				log.ok(host)
			}
			if next%len(cells) == 0 {
				cuts = append(cuts, time.Since(log.start))
			}
		}
		var tail []float64
		for _, lat := range perCell {
			m := median(lat)
			for range lat {
				tail = append(tail, m)
			}
		}
		p := summarize(log, mem, cuts, tail)
		p.p50 = median(tail)
		return p, nil
	}
	// One untimed pass first, so timing starts with the heap grown and
	// every cell's determinism record set. Its colorings are checked and
	// counted like any other.
	warm, err := measure(-1, nil, 0)
	if err != nil {
		return nil, err
	}
	untraced, traced, tr, err := runPhases(cfg, measure)
	if err != nil {
		return nil, err
	}

	var cycles int64
	colors := 0
	var rec []uint64
	for _, r := range ref {
		if r == nil {
			continue // the cell failed every run; the failure is counted
		}
		cycles += r.cycles
		colors += r.numColors
		rec = append(rec, r.digest)
	}
	simM := float64(cycles) / 1e6
	params := map[string]any{
		"datasets":       describe(ds.ds),
		"cells":          fmt.Sprintf("%d: {baseline,hybrid} x {static,stealing}, workgroup %d, %d simulator worker", len(cells), paperWG, paperWorkers),
		"priority_seed":  prio,
		"cell_order":     fmt.Sprint(order),
		"latency_limit":  paperLimit.String(),
		"clients":        1,
		"determinism":    fmt.Sprintf("sim_mcycles %.6f colors %d record %016x", simM, colors, foldDigests(rec)),
		"cells_per_pass": len(cells),
		"warm_up":        "one untimed pass of every cell, checked",
	}
	var extra []string
	var metrics map[string]float64
	if !cfg.trace {
		metrics = endToEndMetrics(setupS, untraced, simM, colors)
	} else {
		metrics = layerMetrics(untraced, traced, 0)
		metrics["kernel.host_ms"] = ratio(float64(acc.hostNS)/1e6, float64(acc.cells))
		metrics["kernel.sim_mcycles"] = simM
		metrics["kernel.host_ns_per_cycle"] = ratio(float64(acc.hostNS), float64(acc.cycles))
		metrics["kernel.iterations"] = ratio(float64(acc.iterations), float64(acc.cells))
		metrics["kernel.simd_util"] = ratio(acc.simd, float64(acc.cells))
		metrics["kernel.cu_imbalance"] = ratio(acc.imbalance, float64(acc.cells))
		metrics["kernel.steals"] = ratio(float64(acc.steals), float64(acc.cells))
		metrics["kernel.alu_ops"] = ratio(float64(acc.alu), float64(acc.cells))
		metrics["kernel.mem_transactions"] = ratio(float64(acc.memTrans), float64(acc.cells))
		metrics["color.verify_ms"] = tr.meanMS("color.verify")
		nondet, errs := atomicCells(ds.ds, cells, prio)
		extra = append(extra, errs...)
		metrics["kernel.nondeterministic_cells"] = float64(nondet)
		params["atomic_cells"] = fmt.Sprintf("%d run twice under CompactionAtomic, %d differed", len(cells), nondet)
		var gs []*graph.Graph
		for _, d := range ds.ds {
			gs = append(gs, d.g)
		}
		metrics["graph.decode_ms"], metrics["graph.fingerprint_ms"] = decodeTimes(gs)
		metrics["color.cpu_ref_ms"] = cpuRefTimes(ds.ds)
		if err := tr.export(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	out := finish(untraced, traced, metrics, params, append(warm.checkErrs, extra...))
	params["windows"] = fmt.Sprintf("%d passes, ops/s %.4g (ops_per_s and goodput_ops_s are medians over them; p50_ms and p99_ms are over per-cell medians)", len(untraced.windows), untraced.windows)
	out.attempted += warm.attempted
	out.failed += warm.failed
	return out, nil
}

// atomicCells runs every cell twice under CompactionAtomic, one simulator
// worker per core as a device runs by default, and counts the cells whose
// two runs differ in colors, cycles or iterations. Those cells never feed
// sim_mcycles; an improper coloring is still a check failure.
func atomicCells(ds []dataset, cells []cell, prio uint32) (int, []string) {
	differ := 0
	var errs []string
	for _, c := range cells {
		var dgs [2]uint64
		for k := range dgs {
			res, _, err := colorCell(ds, c, prio, gpucolor.CompactionAtomic, 0)
			if err == nil {
				err = checkColoring(ds[c.ds].g, res.Colors, nil, res.NumColors)
			}
			if err != nil {
				errs = append(errs, fmt.Sprintf("atomic %s: %v", cellName(ds, c), err))
				break
			}
			dgs[k] = digest(res.Colors, res.Cycles, res.Iterations)
		}
		if dgs[0] != dgs[1] {
			differ++
		}
	}
	return differ, errs
}

// medianOf3 times three calls of f and returns the median in ms.
func medianOf3(f func()) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// decodeTimes times direct calls into the graph layer on each graph:
// decoding its binary CSR frame and fingerprinting it, each the median of
// three calls, averaged over the graphs.
func decodeTimes(gs []*graph.Graph) (decodeMS, fingerprintMS float64) {
	var dec, fp []float64
	for _, g := range gs {
		frame := graph.EncodeWireCSR(g)
		dec = append(dec, medianOf3(func() { _, _, _ = graph.DecodeWireCSR(frame) }))
		fp = append(fp, medianOf3(func() { _ = g.Fingerprint() }))
	}
	return mean(dec), mean(fp)
}

// cpuRefTimes times single-threaded color.Greedy on each dataset, the
// plain CPU baseline, as the median of three calls averaged over them.
func cpuRefTimes(ds []dataset) float64 {
	var cpu []float64
	for _, d := range ds {
		cpu = append(cpu, medianOf3(func() { _ = color.Greedy(d.g, color.Natural, 0) }))
	}
	return mean(cpu)
}
