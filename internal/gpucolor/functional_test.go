package gpucolor

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"gcolor/internal/gen"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// functionalDev is the device of the functional-mode tests: the golden
// test's geometry at workgroup size wg. Atomic compaction hands out
// worklist slots in host-scheduling order, so it runs on one worker.
func functionalDev(mode CompactionMode, pol simt.Policy, wg int) *simt.Device {
	dev := simt.NewDevice()
	dev.NumCUs = 3
	dev.WorkgroupSize = wg
	dev.Policy = pol
	dev.Workers = 2
	if mode == CompactionAtomic {
		dev.Workers = 1
	}
	return dev
}

// costFree reports the first cost figure r carries, or "" when every
// cycle and counter is zero.
func costFree(r *Result) string {
	switch {
	case r.Cycles != 0:
		return fmt.Sprintf("Cycles %d", r.Cycles)
	case r.ALUOps != 0 || r.MemAccesses != 0 || r.MemTransactions != 0 || r.Atomics != 0 ||
		r.CacheHits != 0 || r.ldsAccesses != 0:
		return fmt.Sprintf("counters alu %d mem %d tx %d atomics %d hits %d lds %d",
			r.ALUOps, r.MemAccesses, r.MemTransactions, r.Atomics, r.CacheHits, r.ldsAccesses)
	case r.Steals != 0 || r.busySum != 0 || r.busyMaxSum != 0 || len(r.WavefrontWork) != 0:
		return fmt.Sprintf("steals %d busy %d/%d wavefronts %d", r.Steals, r.busySum, r.busyMaxSum, len(r.WavefrontWork))
	}
	for _, b := range r.CUBusy {
		if b != 0 {
			return fmt.Sprintf("CUBusy %v", r.CUBusy)
		}
	}
	for k, c := range r.KernelCycles {
		if c != 0 {
			return fmt.Sprintf("KernelCycles[%s] %d", k, c)
		}
	}
	return ""
}

// TestFunctionalMatchesAccounted: for every algorithm, both compaction
// modes, both scheduling policies and workgroup sizes 64 and 256, a
// functional run gives the accounted run's colors, color count and
// iterations, and reports no cost at all.
func TestFunctionalMatchesAccounted(t *testing.T) {
	g := gen.RMAT(9, 8, gen.Graph500, 7)
	for _, alg := range Algorithms() {
		for _, mode := range []CompactionMode{CompactionScan, CompactionAtomic} {
			for _, pol := range []simt.Policy{simt.Static, simt.Stealing} {
				for _, wg := range []int{64, 256} {
					for _, fused := range []bool{false, true} {
						if fused && alg != AlgBaseline && alg != AlgMaxMin {
							continue // only the iterative max/maxmin kernels fuse
						}
						name := fmt.Sprintf("%v/%v/%v/wg%d/fused=%v", alg, mode, pol, wg, fused)
						opt := Options{Compaction: mode, HybridThreshold: 24, Fused: fused}
						want, err := Color(functionalDev(mode, pol, wg), g, alg, opt)
						if err != nil {
							t.Fatalf("%s accounted: %v", name, err)
						}
						dev := functionalDev(mode, pol, wg)
						dev.Mode = simt.Functional
						got, err := Color(dev, g, alg, opt)
						if err != nil {
							t.Fatalf("%s functional: %v", name, err)
						}
						if !slices.Equal(got.Colors, want.Colors) || got.NumColors != want.NumColors ||
							got.Iterations != want.Iterations || !slices.Equal(got.ActivePerIter, want.ActivePerIter) {
							t.Errorf("%s: functional colors/iterations differ: %d colors in %d iterations, accounted %d in %d",
								name, got.NumColors, got.Iterations, want.NumColors, want.Iterations)
						}
						if want.Cycles == 0 || want.Functional || !got.Functional {
							t.Errorf("%s: accounted run reports %d cycles, Functional %v; functional run Functional %v",
								name, want.Cycles, want.Functional, got.Functional)
						}
						if c := costFree(got); c != "" {
							t.Errorf("%s: functional run reports %s", name, c)
						}
					}
				}
			}
		}
	}
}

// resultDigest hashes everything a run reports: colors, iterations, the
// cost figures, and the fault evidence when there is an Outcome.
func resultDigest(r *Result, out *Outcome) string {
	h := fnv.New64a()
	fmt.Fprint(h, r.Colors, r.NumColors, r.Iterations, r.ActivePerIter, r.Cycles, r.KernelCycles,
		r.CUBusy, r.Steals, r.ALUOps, r.MemAccesses, r.MemTransactions, r.Atomics, r.CacheHits,
		r.ldsAccesses, r.busySum, r.busyMaxSum, r.WavefrontWork, r.Functional)
	if out != nil {
		fmt.Fprint(h, out.Attempts, out.Recovery, out.Repaired, out.Faults, len(out.AttemptErrors))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFunctionalRunnerLeavesNoState: accounted -> functional -> accounted
// on one pooled Runner gives accounted results byte-identical to a fresh
// device's, so neither the runner's buffers nor the device's worker
// scratch carry anything from the functional run into the next one.
func TestFunctionalRunnerLeavesNoState(t *testing.T) {
	graphs := []*graph.Graph{gen.RMAT(9, 8, gen.Graph500, 7), gen.Star(300), gen.BarabasiAlbert(400, 4, 5)}
	for _, alg := range Algorithms() {
		for i, g := range graphs {
			opt := Options{HybridThreshold: 24}
			fresh := functionalDev(CompactionAtomic, simt.Stealing, 64) // one worker: WavefrontWork order is fixed
			ref, err := Color(fresh, g, alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := resultDigest(ref, nil)
			dev := functionalDev(CompactionAtomic, simt.Stealing, 64)
			rn := NewRunner(dev)
			first, err := rn.Color(g, alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			dev.Mode = simt.Functional
			mid, err := rn.Color(graphs[(i+1)%len(graphs)], alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			if c := costFree(mid); c != "" {
				t.Errorf("%v: functional run on a pooled runner reports %s", alg, c)
			}
			dev.Mode = simt.Accounted
			last, err := rn.Color(g, alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d := resultDigest(first, nil); d != want {
				t.Errorf("%v graph %d: pooled accounted run differs from a fresh device", alg, i)
			}
			if d := resultDigest(last, nil); d != want {
				t.Errorf("%v graph %d: accounted run after a functional one differs from a fresh device", alg, i)
			}
		}
	}
}

// TestFunctionalUnderFaultStaysAccounted: an armed fault injector keeps a
// Functional device accounted, so the fault schedule, the recovery and the
// cycles are exactly those of a plain accounted device with the same
// injector.
func TestFunctionalUnderFaultStaysAccounted(t *testing.T) {
	g := gen.RMAT(9, 8, gen.Graph500, 7)
	for _, alg := range []Algorithm{AlgBaseline, AlgHybrid, AlgSpeculative} {
		run := func(mode simt.Mode) string {
			dev := functionalDev(CompactionScan, simt.Static, 64)
			dev.Fault = simt.NewFaultInjector(1, 0.001)
			dev.Mode = mode
			out, err := NewRunner(dev).ColorContext(context.Background(), g, alg, ResilientOptions{Options: Options{HybridThreshold: 24}})
			if err != nil {
				t.Fatalf("%v %v: %v", alg, mode, err)
			}
			if out.Faults.Injected() == 0 {
				t.Fatalf("%v %v: no fault injected; the test needs a higher rate", alg, mode)
			}
			return resultDigest(out.Result, out)
		}
		if acc, fn := run(simt.Accounted), run(simt.Functional); acc != fn {
			t.Errorf("%v: armed injector on a Functional device gives digest %s, accounted %s", alg, fn, acc)
		}
	}
}

// TestFunctionalCycleBudget: a cycle budget still aborts a run on a
// Functional device, which returns to Functional afterwards.
func TestFunctionalCycleBudget(t *testing.T) {
	g := gen.RMAT(9, 8, gen.Graph500, 7)
	dev := functionalDev(CompactionScan, simt.Static, 64)
	dev.Mode = simt.Functional
	rn := NewRunner(dev)
	_, err := rn.ColorContext(context.Background(), g, AlgBaseline,
		ResilientOptions{CycleBudget: 1000, MaxRetries: -1, NoCPUFallback: true})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budgeted functional run: err = %v, want ErrBudgetExceeded", err)
	}
	if dev.Mode != simt.Functional {
		t.Fatalf("device mode after a budgeted run = %v, want functional", dev.Mode)
	}
	out, err := rn.ColorContext(context.Background(), g, AlgBaseline, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c := costFree(out.Result); c != "" {
		t.Errorf("unbudgeted run after a budgeted one reports %s", c)
	}
}
