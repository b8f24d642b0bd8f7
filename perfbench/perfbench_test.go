package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"gcolor/internal/graph"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	cases := []struct {
		n     int
		value float64
		q     float64
	}{
		{1000, 990, 0.99}, // p99 itself leaves exactly 10 above
		{2000, 1980, 0.99},
		{500, 490, 0.98}, // p99 would leave 5; fall back to the 490th of 500
		{100, 90, 0.90},
		{21, 11, 11.0 / 21},
		{15, 8, 8.0 / 15}, // too few: the median
		{1, 1, 1},
	}
	for _, c := range cases {
		v, q := tailPercentile(seq(c.n), 0.99)
		if v != c.value || q != c.q {
			t.Errorf("n=%d: got %v at q=%v, want %v at q=%v", c.n, v, q, c.value, c.q)
		}
		above := 0
		for _, x := range seq(c.n) {
			if x > v {
				above++
			}
		}
		if c.n > 2*minBeyond && above < minBeyond {
			t.Errorf("n=%d: only %d samples above the reported tail", c.n, above)
		}
	}
	if v, _ := tailPercentile(nil, 0.99); v != 0 {
		t.Errorf("empty sample: got %v", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3, 2, 4}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) span {
		return span{Start: t0.Add(time.Duration(a) * time.Millisecond), End: t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	children := []span{at(10, 40), at(20, 50), at(60, 70), at(90, 130)}
	// Covered: [10,50) + [60,70) + [90,100) = 60 ms.
	if got := selfTime(parent, children); got != 40*time.Millisecond {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self time without children = %v, want 100ms", got)
	}
}

// inputBytes renders every input a workload derives from seed.
func inputBytes(seed int64) []byte {
	var b bytes.Buffer
	for _, d := range paperGraphs(full) {
		b.Write(graph.EncodeWireCSR(d.g))
	}
	fmt.Fprintf(&b, "%v", passOrder(seed, 28))
	gs := mixGraphs(seed, tiny)
	for _, g := range gs {
		b.Write(g.csr)
		b.WriteString(g.edgeText)
	}
	hot := hotPairs(seed, len(gs), mixSeedsPerGraph)
	fmt.Fprintf(&b, "%v", hot)
	fmt.Fprintf(&b, "%v", mixSchedule(seed, 0, 2*time.Second, mixTraffic, hot, []int{1, 2}, 1_000_000))
	base := deltaBase(0, full)
	r := rngFor(seed, "delta/client/0")
	for i := 0; i < 3; i++ {
		b.Write(graph.EncodeWireDelta(base.Fingerprint(), nextDelta(r, base, deltaTraffic.smallFrac)))
	}
	big, small := fleetGraphs(seed, full)
	for _, d := range append(big, small...) {
		b.Write(graph.EncodeWireCSR(d.g))
	}
	return b.Bytes()
}

func TestSeededInputsRepeat(t *testing.T) {
	a, b := inputBytes(7), inputBytes(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different inputs")
	}
	if bytes.Equal(a, inputBytes(8)) {
		t.Fatal("a new seed produced the same inputs")
	}
}

func TestPowerLawIsDeterministicPreferentialAttachment(t *testing.T) {
	g := powerLaw(2000, 4, 3)
	if g.Fingerprint() != powerLaw(2000, 4, 3).Fingerprint() {
		t.Fatal("powerLaw is not deterministic")
	}
	if g.NumEdges() != 10+4*(2000-5) {
		t.Errorf("edges = %d, want the seed clique plus m per later vertex", g.NumEdges())
	}
	if g.MaxDegree() < 10*int(g.AvgDegree()) {
		t.Errorf("max degree %d is not hub-like against average %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestNextDeltaShape(t *testing.T) {
	g := deltaBase(0, full)
	d := nextDelta(rand.New(rand.NewSource(1)), g, deltaTraffic.smallFrac)
	k := int(deltaTraffic.smallFrac * float64(g.NumEdges()))
	if len(d.RemoveEdges) != k/2 || len(d.AddEdges) != k-k/2 {
		t.Fatalf("delta has %d removals and %d additions, want %d in all", len(d.RemoveEdges), len(d.AddEdges), k)
	}
	for _, e := range d.RemoveEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("removal %v is not an edge", e)
		}
	}
	ng, _, frontier, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if budget := int(deltaTraffic.budget * float64(ng.NumVertices())); len(frontier) > budget {
		t.Errorf("small delta frontier %d exceeds the budget %d", len(frontier), budget)
	}
	big := nextDelta(rand.New(rand.NewSource(1)), g, deltaTraffic.bigFrac)
	_, _, frontier, _ = graph.ApplyDelta(g, big)
	if budget := int(deltaTraffic.budget * float64(ng.NumVertices())); len(frontier) <= budget {
		t.Errorf("big delta frontier %d stays within the budget %d", len(frontier), budget)
	}
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and requires every check to pass and every metric to appear.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads() {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				cfg := runConfig{seed: 3, seconds: 0.6, trace: trace, size: tiny, workDir: t.TempDir()}
				out, err := wl.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.checkErrs) > 0 || out.failed > 0 {
					t.Fatalf("%d of %d failed: %v", out.failed, out.attempted, out.checkErrs)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				line, err := resultLine(out, defs)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || len(res.Metrics) != len(defs) {
					t.Fatalf("result %s", line)
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v; end-to-end metrics must never be 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// here in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	wls := workloads()
	if len(bj.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(bj.Workloads), len(wls))
	}
	for i, w := range bj.Workloads {
		if w.Name != wls[i].name || w.Why != wls[i].why {
			t.Errorf("workload %d: BENCHMARK.json %s (%s), code %s (%s)", i, w.Name, w.Why, wls[i].name, wls[i].why)
		}
	}
}
