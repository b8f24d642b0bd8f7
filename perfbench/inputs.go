package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gen"
	"gcolor/internal/graph"
)

// rngFor derives an independent random stream for one named input from
// the workload seed, so adding a stream never shifts another.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// genSeed is a generator seed for one named graph.
func genSeed(seed int64, name string) int64 { return rngFor(seed, "graph/"+name).Int63n(1<<31) + 1 }

// prioSeed is a vertex-priority seed in [1, 1e6); serving workloads keep
// seeds at or above 1e6 for one-off (cache-missing) requests.
func prioSeed(r *rand.Rand) uint32 { return uint32(r.Intn(999_999) + 1) }

// dataset is one named generated graph.
type dataset struct {
	name string
	kind string
	g    *graph.Graph
}

// paperGraphs builds the seven F7 structures of exp.Datasets with their
// fixed generator seeds, at 4,096 vertices each (rmat scale 12): one pass
// over the 28 cells takes a few seconds of host time, where the
// experiment's own Full scale (16,384) spends ~20 s on rmat alone.
//
// The matrix is fixed, as in exp.FigHeadline, so sim_mcycles and colors
// are the same in every run. Generators seeded from the workload seed
// would swamp the host timings: a new R-MAT draw moves a pass's host time
// by tens of percent (an 18% quartile spread of ops_per_s over ten seeds,
// against 4% for one fixed matrix on a 2-core host).
func paperGraphs(sz size) []dataset {
	n, scale, side2, side3 := 4096, 12, 64, 16
	if sz == tiny {
		n, scale, side2, side3 = 256, 8, 16, 6
	}
	r := math.Sqrt(10 / (math.Pi * float64(n)))
	return []dataset{
		{"rmat", "scale-free", gen.RMAT(scale, 16, gen.Graph500, 1)},
		{"powerlaw", "power-law", powerLaw(n, 8, 2)},
		{"random", "uniform", gen.GNM(n, 12*n, 3)},
		{"grid2d", "mesh", gen.Grid2D(side2, side2)},
		{"grid3d", "mesh", gen.Grid3D(side3, side3, side3)},
		{"road", "road", gen.RandomGeometric(n, r, 4)},
		{"smallworld", "small-world", gen.WattsStrogatz(n, 12, 0.05, 5)},
	}
}

// passOrder is the seeded order in which one pass visits the cells.
func passOrder(seed int64, cells int) []int {
	return rngFor(seed, "paper/order").Perm(cells)
}

// powerLaw is the Barabasi-Albert model of gen.BarabasiAlbert with the
// new vertex's targets attached in ascending order. gen.BarabasiAlbert
// attaches them in map iteration order, which feeds back into later
// degree-proportional draws, so one seed gives a different graph on every
// call (see genDeterministic); the benchmark's inputs must repeat exactly.
func powerLaw(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	targets := make([]int32, 0, 2*m*n)
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			b.AddEdge(int32(u), int32(v))
			targets = append(targets, int32(u), int32(v))
		}
	}
	chosen := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			u := targets[rng.Intn(len(targets))]
			if u != int32(v) && !slices.Contains(chosen, u) {
				chosen = append(chosen, u)
			}
		}
		slices.Sort(chosen)
		for _, u := range chosen {
			b.AddEdge(int32(v), u)
			targets = append(targets, int32(v), u)
		}
	}
	return b.Build()
}

// genDeterministic reports whether gen.BarabasiAlbert returns the same
// graph on two calls with one seed. It is stamped into every record so
// the generator defect stays visible while the benchmark works around it.
func genDeterministic() bool {
	a, b := gen.BarabasiAlbert(512, 4, 1), gen.BarabasiAlbert(512, 4, 1)
	return a.Fingerprint() == b.Fingerprint()
}

// mixGraph is one serve-mix graph with its two wire forms, encoded once.
type mixGraph struct {
	dataset
	csr      []byte // binary CSR frame
	edgeText string // edge-list text for JSON bodies
	cold     bool   // cache misses fall on this graph
}

// mixGraphs are serve-mix's small graphs: mesh, uniform, scale-free and
// small-world, about two thousand vertices each. R-MAT is left to the
// other workloads: a miss on it costs several times the others and its
// cost swings with the seed, which would make the tail measure the input
// rather than the server. Misses fall on the uniform and scale-free
// graphs, whose colorings cost about the same, so p99 is a percentile of
// one cost distribution rather than the edge between two.
func mixGraphs(seed int64, sz size) []mixGraph {
	side, n := 48, 2000
	if sz == tiny {
		side, n = 12, 150
	}
	ds := []dataset{
		{"mesh", "mesh", gen.Grid2D(side, side)},
		{"uniform", "uniform", gen.GNM(n, 8*n, genSeed(seed, "mix/uniform"))},
		{"powerlaw", "scale-free", powerLaw(n, 4, genSeed(seed, "mix/powerlaw"))},
		{"smallworld", "small-world", gen.WattsStrogatz(n, 8, 0.05, genSeed(seed, "mix/smallworld"))},
	}
	out := make([]mixGraph, len(ds))
	for i, d := range ds {
		var b bytes.Buffer
		if err := graph.WriteEdgeList(&b, d.g); err != nil {
			panic(err) // writing to a bytes.Buffer cannot fail
		}
		out[i] = mixGraph{dataset: d, csr: graph.EncodeWireCSR(d.g), edgeText: b.String(), cold: d.kind == "uniform" || d.kind == "scale-free"}
	}
	return out
}

// pair is one (graph, seed, algorithm) request identity: the unit the
// result cache keys on.
type pair struct {
	graph int
	seed  uint32
	alg   string
}

// hotPairs is the fixed set most serve-mix requests repeat: every graph
// under perGraph seeds, alternating baseline and hybrid.
func hotPairs(seed int64, graphs, perGraph int) []pair {
	r := rngFor(seed, "mix/hot")
	var ps []pair
	for g := 0; g < graphs; g++ {
		for j := 0; j < perGraph; j++ {
			ps = append(ps, pair{g, prioSeed(r), []string{"baseline", "hybrid"}[(g+j)%2]})
		}
	}
	return ps
}

// mixOp is one scheduled serve-mix request.
type mixOp struct {
	due  time.Duration // offset from phase start
	p    pair
	json bool // JSON edge-list body instead of binary CSR
}

// mixParams fixes serve-mix's traffic.
type mixParams struct {
	rate      float64 // offered requests per second (Poisson arrivals)
	coldEvery int     // every coldEvery-th request has a never-seen seed (cache miss)
	jsonShare float64 // share of requests with a JSON edge-list body
	limit     time.Duration
}

// mixSchedule is the open-loop arrival schedule of one phase: Poisson
// arrivals at p.rate over d. Misses come at a fixed stride and take the
// cold graphs in turn, so every run misses equally often on each; cold
// requests take fresh seeds at or above coldBase, so no two requests of a
// run share a cold seed.
func mixSchedule(seed int64, phaseIdx int, d time.Duration, p mixParams, hot []pair, coldGraphs []int, coldBase uint32) []mixOp {
	r := rngFor(seed, fmt.Sprintf("mix/schedule/%d", phaseIdx))
	var ops []mixOp
	t := 0.0
	cold := coldBase
	for i := 1; ; i++ {
		t += r.ExpFloat64() / p.rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		op := mixOp{due: due, json: r.Float64() < p.jsonShare}
		if i%p.coldEvery == 0 {
			g := coldGraphs[int(cold-coldBase)%len(coldGraphs)]
			op.p = pair{g, cold, []string{"baseline", "hybrid"}[g%2]}
			cold++
		} else {
			op.p = hot[r.Intn(len(hot))]
		}
		ops = append(ops, op)
	}
}

// deltaBase is one delta-stream client's resident base: the graph the
// spec rmat:12:16:<client+1> names (scale 7 at tiny size). The bases are
// fixed and the seed scripts the deltas: full recolors of the chain
// dominate the workload's time, and their cost swings by tens of percent
// between R-MAT draws, which would bury any change in the server.
func deltaBase(client int, sz size) *graph.Graph {
	scale := 12
	if sz == tiny {
		scale = 7
	}
	return gen.RMAT(scale, 16, gen.Graph500, int64(client+1))
}

// deltaParams fixes delta-stream's traffic.
type deltaParams struct {
	readEvery  int     // every readEvery-th operation re-reads a recent version
	bigEvery   int     // every bigEvery-th delta is sized to exceed the budget
	smallFrac  float64 // edge operations of a small delta, as a share of edges
	bigFrac    float64 // edge operations of a big delta, as a share of edges
	budget     float64 // the server's frontier budget (serve.DeltaConfig default)
	limit      time.Duration
	warmDeltas int // deltas per chain applied during set-up
}

// nextDelta draws one delta against g: half removals of existing edges,
// half additions of absent ones, frac of g's edges in all. The draw
// depends only on r and g, so a chain's script is fixed by the seed.
func nextDelta(r *rand.Rand, g *graph.Graph, frac float64) *graph.Delta {
	n := g.NumVertices()
	k := int(frac * float64(g.NumEdges()))
	if k < 2 {
		k = 2
	}
	d := &graph.Delta{}
	for len(d.RemoveEdges) < k/2 {
		u := int32(r.Intn(n))
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		d.RemoveEdges = append(d.RemoveEdges, [2]int32{u, nb[r.Intn(len(nb))]})
	}
	for len(d.AddEdges) < k-k/2 {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		d.AddEdges = append(d.AddEdges, [2]int32{u, v})
	}
	return d
}

// fleetGraphs are fleet-scatter's inputs: big graphs at or above the
// coordinator's default scatter threshold (8,192 vertices), scattered over
// both workers, and small graphs routed whole.
func fleetGraphs(seed int64, sz size) (big, small []dataset) {
	bn, sn := 9000, 1000
	if sz == tiny {
		bn, sn = 8192, 128
	}
	r := math.Sqrt(10 / (math.Pi * float64(bn)))
	// Three graphs of each kind: the coordinator places each shard by a
	// rendezvous hash of the graph's fingerprint, so a run needs many
	// distinct big graphs to average over shards that happen to share a
	// worker.
	for i, shape := range [][2]int{{96, 96}, {92, 100}, {90, 102}} {
		k := fmt.Sprint(i)
		big = append(big,
			dataset{"mesh" + k, "mesh", gen.Grid2D(shape[0], shape[1])},
			dataset{"road" + k, "road", gen.RandomGeometric(bn, r, genSeed(seed, "fleet/road"+k))},
			dataset{"smallworld" + k, "small-world", gen.WattsStrogatz(bn, 8, 0.05, genSeed(seed, "fleet/smallworld"+k))},
			dataset{"powerlaw" + k, "power-law", powerLaw(bn, 3, genSeed(seed, "fleet/powerlaw"+k))})
	}
	if sz == tiny {
		big = big[:1]
	}
	small = []dataset{
		{"mesh-s", "mesh", gen.Grid2D(32, 32)},
		{"uniform-s", "uniform", gen.GNM(sn, 5*sn, genSeed(seed, "fleet/uniform"))},
		{"rmat-s", "scale-free", gen.RMAT(10, 8, gen.Graph500, genSeed(seed, "fleet/rmat"))},
		{"smallworld-s", "small-world", gen.WattsStrogatz(sn, 6, 0.1, genSeed(seed, "fleet/smallworld-s"))},
	}
	return big, small
}

// digest folds a coloring and its simulated evidence into one value: the
// determinism record compares these across passes and runs.
func digest(colors []int32, cycles int64, iterations int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range colors {
		b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		h.Write(b[:4])
	}
	for i := 0; i < 8; i++ {
		b[i] = byte(cycles >> (8 * i))
	}
	h.Write(b[:])
	fmt.Fprintf(h, "/%d", iterations)
	return h.Sum64()
}

// foldDigests folds per-coloring digests into one printable value.
func foldDigests(dgs []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, d := range dgs {
		h ^= d
		h *= 1099511628211
	}
	return h
}

// checkColoring verifies colors against the benchmark's own copy of the
// graph and, when want is non-nil, that it equals an earlier answer for the
// same request.
func checkColoring(g *graph.Graph, colors, want []int32, numColors int) error {
	if len(colors) != g.NumVertices() {
		return fmt.Errorf("%d colors for %d vertices", len(colors), g.NumVertices())
	}
	if err := color.Verify(g, colors); err != nil {
		return err
	}
	// Producers count colors either as distinct values or as the palette
	// span max+1; anything outside that range misreports the coloring.
	if lo, hi := distinctColors(colors), color.NumColors(colors); numColors < lo || numColors > hi {
		return fmt.Errorf("num_colors %d, coloring uses %d distinct colors up to %d", numColors, lo, hi-1)
	}
	if want != nil {
		if len(want) != len(colors) {
			return fmt.Errorf("coloring length changed: %d then %d", len(want), len(colors))
		}
		for i := range want {
			if want[i] != colors[i] {
				return fmt.Errorf("repeat request returned a different coloring at vertex %d", i)
			}
		}
	}
	return nil
}

func distinctColors(colors []int32) int {
	seen := make(map[int32]struct{})
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// describe lists graphs for the record: name, kind and size.
func describe(ds []dataset) string {
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%s(%s) n=%d m=%d", d.name, d.kind, d.g.NumVertices(), d.g.NumEdges()))
	}
	return strings.Join(parts, ", ")
}
