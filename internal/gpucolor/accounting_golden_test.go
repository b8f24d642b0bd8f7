package gpucolor

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gcolor/internal/gen"
	"gcolor/internal/simt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/accounting_golden.txt from the current simulator")

const goldenPath = "testdata/accounting_golden.txt"

// goldenCase is one simulator configuration of TestAccountingGolden.
type goldenCase struct {
	alg       Algorithm
	mode      CompactionMode
	policy    simt.Policy
	cacheSegs int
	wgSize    int
	segElems  int32
	faultSeed uint64 // 0 = no fault injector
	faultRate float64
}

func (c goldenCase) name() string {
	s := fmt.Sprintf("%v/%v/%v/cache%d/wg%d/seg%d", c.alg, c.mode, c.policy, c.cacheSegs, c.wgSize, c.segElems)
	if c.faultSeed != 0 {
		s += fmt.Sprintf("/fault%d@%g", c.faultSeed, c.faultRate)
	}
	return s
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, alg := range []Algorithm{AlgBaseline, AlgHybrid, AlgJP, AlgMaxMin, AlgSpeculative} {
		for _, mode := range []CompactionMode{CompactionScan, CompactionAtomic} {
			for _, pol := range []simt.Policy{simt.Static, simt.Stealing} {
				for _, cache := range []int{0, 16, 256} {
					for _, wg := range []int{64, 256} {
						// 12 is not a power of two: the divide path.
						for _, seg := range []int32{1, 12, 16} {
							cases = append(cases, goldenCase{alg, mode, pol, cache, wg, seg, 0, 0})
						}
					}
				}
			}
		}
	}
	// Fault keys read each lane's access ordinal, so the fault schedule
	// pins the per-lane access counting too.
	return append(cases, goldenCase{AlgHybrid, CompactionScan, simt.Static, 16, 64, 16, 1, 0.001})
}

// goldenDigest runs one case and hashes every number the cost model
// produces: colors, cycles, iterations, the operation counters and the
// per-wavefront work.
func goldenDigest(t *testing.T, c goldenCase) string {
	g := gen.RMAT(9, 8, gen.Graph500, 7)
	dev := simt.NewDevice()
	dev.NumCUs = 3 // few CUs, so the scheduling policies diverge
	dev.WorkgroupSize = c.wgSize
	dev.Policy = c.policy
	dev.Cost.CacheSegments = c.cacheSegs
	dev.Cost.SegmentElems = c.segElems
	// Atomic compaction hands out worklist slots in host-scheduling order,
	// so only a single phase-A worker makes it reproducible.
	dev.Workers = 2
	if c.mode == CompactionAtomic {
		dev.Workers = 1
	}
	if c.faultSeed != 0 {
		dev.Fault = simt.NewFaultInjector(c.faultSeed, c.faultRate)
		dev.Workers = 1
	}
	opt := Options{Compaction: c.mode, HybridThreshold: 24}
	h := fnv.New64a()
	var res *Result
	if dev.Fault != nil {
		// Faulted runs go through the recovery ladder, which always ends
		// with a coloring; the digest also covers the fault counters.
		out, err := ColorContext(context.Background(), dev, g, c.alg, ResilientOptions{Options: opt})
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		res = out.Result
		fmt.Fprint(h, out.Attempts, out.Recovery, out.Faults)
	} else {
		var err error
		if res, err = Color(dev, g, c.alg, opt); err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
	}
	// Parallel phase-A workers merge their wavefront lists in host order,
	// so the per-wavefront work is pinned as a multiset.
	work := slices.Clone(res.WavefrontWork)
	slices.Sort(work)
	fmt.Fprint(h, res.Colors, res.Cycles, res.Iterations, res.ALUOps, res.MemAccesses,
		res.MemTransactions, res.CacheHits, res.Atomics, res.ldsAccesses, work)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAccountingGolden pins the simulator's cost accounting bit for bit
// across the paper's algorithms, both compaction modes, both scheduling
// policies and a spread of cache, workgroup and segment geometries. Any
// change to how accesses are coalesced, deduplicated or cached shows up as
// a digest mismatch. Regenerate with -update-golden only for an intended
// change to the cost model.
func TestAccountingGolden(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		got[c.name()] = goldenDigest(t, c)
	}
	if *updateGolden {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name(), got[c.name()])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d cases, want %d", len(want), len(cases))
	}
	var bad []string
	for name, d := range got {
		if want[name] != d {
			bad = append(bad, name)
		}
	}
	slices.Sort(bad)
	for _, name := range bad {
		t.Errorf("%s: digest %s, golden %s", name, got[name], want[name])
	}
}
