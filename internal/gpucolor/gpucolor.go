// Package gpucolor implements the paper's contribution: graph coloring on
// the (simulated) GPU. It provides the baseline iterative independent-set
// kernels (colorMax and colorMaxMin in Pannotia's terminology), a
// speculative first-fit variant, and the two load-imbalance techniques the
// paper evaluates — work-stealing workgroup scheduling and the hybrid
// algorithm that routes high-degree vertices to workgroup-per-vertex
// cooperative kernels.
//
// All algorithms run on an simt.Device; their Results carry both the
// coloring and the simulated performance evidence (cycles, per-kernel
// breakdown, wavefront work distribution, per-CU load, utilization, steals)
// that the experiment harness turns into the paper's tables and figures.
package gpucolor

import (
	"math"
	"slices"

	"gcolor/internal/color"
	"gcolor/internal/gpuprim"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
	"gcolor/internal/trace"
)

// CompactionMode selects how worklists are rebuilt between iterations.
type CompactionMode int

const (
	// CompactionScan (the default) rebuilds worklists with device-side
	// prefix-sum stream compaction (gpuprim): order-preserving,
	// deterministic, and costed as the three scan kernels it launches.
	CompactionScan CompactionMode = iota
	// CompactionAtomic uses the Pannotia-era idiom: an atomic cursor per
	// worklist. On real hardware the output order depends on timing; the
	// simulator normalizes it to ascending order after each launch so runs
	// stay reproducible.
	CompactionAtomic
)

// String implements fmt.Stringer.
func (m CompactionMode) String() string {
	if m == CompactionAtomic {
		return "atomic"
	}
	return "scan"
}

// Options configures a GPU coloring run.
type Options struct {
	// Seed selects the vertex priority hash (default 0 -> seed 1).
	Seed uint32
	// HybridThreshold is the degree at or above which Hybrid routes a vertex
	// to the cooperative kernel; 0 means the device's workgroup size.
	// Values outside the int32 domain are normalized, not truncated:
	// negative behaves like 0 and anything above MaxInt32 means "no vertex
	// is big" (see NormalizeHybridThreshold).
	HybridThreshold int
	// MaxIterations caps the outer loop as a safety net; 0 means the number
	// of vertices + 1 (iterative IS coloring colors >= 1 vertex per
	// iteration, so that bound is never hit by a correct run).
	MaxIterations int
	// Compaction selects the worklist rebuild strategy.
	Compaction CompactionMode
	// Fused merges each iteration's candidate and assign kernels into one
	// launch for the iterative max/maxmin algorithms: winners publish
	// their colors through relaxed-atomic stores and every lane resolves
	// its neighbours' launch-time activity locally, so the coloring is
	// bit-identical to the two-kernel run while spending strictly fewer
	// simulated cycles (one launch overhead and the second kernel's
	// redundant loads disappear). Jones–Plassmann assignment cannot fuse —
	// its first-fit colors are indistinguishable from earlier iterations'
	// colors mid-launch — and the hybrid big-vertex path keeps the
	// two-kernel snapshot semantics; both ignore the flag. Off by default.
	Fused bool
	// Trace records the per-launch timeline in Result.Timeline (for
	// chrome-trace export); off by default to keep memory flat.
	Trace bool

	// PrioritySegments, when non-empty, replaces the single-seed priority
	// fill for block-diagonal batched runs: vertices in [Start, End) get
	// exactly the priorities member graph i would have received in a solo
	// run with Seed — ids rebased to Start, the same 0->1 seed default
	// applied. Every coloring algorithm here is deterministic given the
	// priority array and touches only same-component state, so a batch
	// member's colors are bit-identical to its solo run (see
	// TestBatchedPrioritySegments). Segments must be disjoint, sorted, and
	// cover 0..n exactly; Options.Seed is ignored when set.
	PrioritySegments []PrioritySegment

	// guard, when set, is invoked at every outer-loop iteration boundary
	// with the iteration number, the active-vertex count entering it, and
	// the cycles simulated so far; a non-nil return aborts the run with
	// that error. It is package-private plumbing for the resilient driver
	// (ColorContext): cancellation, cycle budgets, and livelock detection
	// all hook in here, costing nothing when unset.
	guard func(iter, active int, cycles int64) error
}

// NormalizeHybridThreshold clamps a hybrid degree threshold into the
// int32 domain the kernels compare in. Vertex degrees are int32 in the
// CSR, so a threshold above MaxInt32 can never match a real degree and
// clamps to MaxInt32 ("no vertex is big"); a bare int32(...) conversion
// would instead wrap it into a negative (silently replaced by the device
// default) or a small positive (silently routing every vertex to the
// cooperative kernel). Negative thresholds normalize to 0, the documented
// "use the device default" value.
func NormalizeHybridThreshold(t int) int {
	if t < 0 {
		return 0
	}
	if t > math.MaxInt32 {
		return math.MaxInt32
	}
	return t
}

// PrioritySegment assigns an independent priority stream to the contiguous
// vertex range [Start, End) of a block-diagonal batch graph (see
// Options.PrioritySegments and graph.ConcatDisjoint).
type PrioritySegment struct {
	Start, End int32
	Seed       uint32
}

func (o Options) seed() uint32 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// fillSegmentPriorities writes per-segment solo-run priorities into dst.
func fillSegmentPriorities(segs []PrioritySegment, dst []int32) {
	for _, s := range segs {
		seed := s.Seed
		if seed == 0 {
			seed = 1 // mirror Options.seed(): solo runs map 0 to 1 too
		}
		for v := s.Start; v < s.End; v++ {
			dst[v] = int32(color.Priority(v-s.Start, seed))
		}
	}
}

func (o Options) maxIters(n int) int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return n + 1
}

// Result is the outcome of one GPU coloring run.
type Result struct {
	// Colors is the proper coloring produced; NumColors the count used.
	Colors    []int32
	NumColors int
	// Iterations is the number of outer-loop iterations; ActivePerIter the
	// uncolored-vertex count entering each iteration (convergence profile).
	Iterations    int
	ActivePerIter []int

	// Cycles is total simulated time over all kernel launches;
	// KernelCycles breaks it down by kernel name.
	Cycles       int64
	KernelCycles map[string]int64
	// WavefrontWork lists per-wavefront cycles of the candidate/assign
	// kernels — the paper's intra-kernel imbalance evidence.
	WavefrontWork []int64
	// CUBusy accumulates per-CU busy cycles over all launches (inter-CU
	// imbalance evidence); Steals counts work-stealing events.
	CUBusy []int64
	Steals int64
	// Aggregate operation counters over all launches.
	ALUOps          int64
	MemAccesses     int64
	MemTransactions int64
	Atomics         int64
	CacheHits       int64

	// Timeline lists every kernel launch in order (only when Options.Trace
	// was set); export it with the trace package.
	Timeline []trace.Span

	// Functional reports that the run executed on a simt.Functional
	// device: Cycles and every counter above are zero because nothing was
	// measured, not because the work was free.
	Functional bool

	busySum, busyMaxSum int64
	width               int
	ldsAccesses         int64 // pinned by TestAccountingGolden
}

// SIMDUtilization returns the lane-occupancy fraction aggregated over every
// kernel launch of the run.
func (r *Result) SIMDUtilization() float64 {
	if r.busyMaxSum == 0 {
		return 0
	}
	return float64(r.busySum) / float64(int64(r.width)*r.busyMaxSum)
}

// runner holds the device-resident state shared by all algorithms. A
// runner is either transient — built by one package-level call, its arena
// buffers handed back when the run ends — or pooled, owned by an exported
// Runner that rebinds it to a new graph per job via reset. Every buffer is
// held at exactly the length the current graph needs (pooled reuse at a
// stale length would change out-of-bounds behaviour under fault injection)
// and re-initialized to the state a fresh allocation would have, so a warm
// runner is bit-identical to a cold one.
type runner struct {
	dev  *simt.Device
	g    *graph.Graph
	opt  Options
	n    int32
	off  *simt.BufInt32 // CSR offsets (bound view, rebound per graph)
	adj  *simt.BufInt32 // CSR adjacency (bound view, rebound per graph)
	prio *simt.BufInt32 // vertex priorities (uint32 bit patterns)
	col  *simt.BufInt32 // colors; -1 = uncolored
	win  *simt.BufInt32 // per-vertex candidate flag
	wlA  *simt.BufInt32 // worklist ping
	wlB  *simt.BufInt32 // worklist pong
	cnt  *simt.BufInt32 // worklist append counters (atomic compaction mode)
	keep *simt.BufInt32 // per-position survivor flags (scan compaction mode)
	scr  *simt.BufInt32 // scan scratch (scan compaction mode)

	// Algorithm-specific temporaries, acquired on first use and retained
	// (pooled) or released with the rest (transient).
	snap *simt.BufInt32 // speculative round snapshot
	bigA *simt.BufInt32 // hybrid high-degree worklist ping
	bigB *simt.BufInt32 // hybrid high-degree worklist pong

	ss     *gpuprim.ScanScratch
	seen   []bool // countDistinct scratch, grown monotonically
	pooled bool   // owned by a Runner: buffers survive across jobs

	res *Result
}

func newRunner(dev *simt.Device, g *graph.Graph, opt Options) *runner {
	r := &runner{dev: dev, ss: gpuprim.NewScanScratch(dev)}
	r.reset(g, opt)
	return r
}

// fit returns *pb at exactly sz elements, releasing and re-acquiring from
// the device arena when the length differs. The returned buffer's contents
// are unspecified — reset and the temp getters re-initialize as needed.
func (r *runner) fit(pb **simt.BufInt32, sz int) *simt.BufInt32 {
	if b := *pb; b != nil {
		if b.Len() == sz {
			return b
		}
		r.dev.Release(b)
	}
	*pb = r.dev.AllocInt32(sz)
	return *pb
}

// reset rebinds the runner to a new graph and run configuration, reusing
// every buffer whose length still fits. After reset the device-visible
// state is indistinguishable from a freshly built runner's.
func (r *runner) reset(g *graph.Graph, opt Options) {
	n := g.NumVertices()
	r.g, r.opt, r.n = g, opt, int32(n)
	if r.off == nil {
		r.off = r.dev.BindInt32(g.Offsets())
		r.adj = r.dev.BindInt32(g.Adj())
	} else {
		r.dev.Rebind(r.off, g.Offsets())
		r.dev.Rebind(r.adj, g.Adj())
	}
	if len(opt.PrioritySegments) > 0 {
		fillSegmentPriorities(opt.PrioritySegments, r.fit(&r.prio, n).Data())
	} else {
		color.PrioritiesInto(g, opt.seed(), r.fit(&r.prio, n).Data())
	}
	r.fit(&r.col, n).Fill(color.Uncolored)
	r.fit(&r.win, n).Fill(0)
	wlA := r.fit(&r.wlA, n)
	for v := 0; v < n; v++ {
		wlA.Data()[v] = int32(v)
	}
	r.fit(&r.wlB, n).Fill(0)
	r.fit(&r.cnt, 4).Fill(0)
	r.fit(&r.keep, n).Fill(0)
	r.fit(&r.scr, n).Fill(0)
	r.res = &Result{
		KernelCycles: make(map[string]int64),
		CUBusy:       make([]int64, r.dev.NumCUs),
		Functional:   r.dev.Functional(),
		width:        r.dev.WavefrontWidth,
	}
}

// snapBuf returns the speculative snapshot temp, zeroed as a fresh
// allocation would be.
func (r *runner) snapBuf() *simt.BufInt32 {
	b := r.fit(&r.snap, int(r.n))
	b.Fill(0)
	return b
}

// bigBufs returns the hybrid high-degree worklist pair, zeroed.
func (r *runner) bigBufs() (cur, next *simt.BufInt32) {
	cur = r.fit(&r.bigA, int(r.n))
	next = r.fit(&r.bigB, int(r.n))
	cur.Fill(0)
	next.Fill(0)
	return cur, next
}

// release hands b back to the device arena if held.
func (r *runner) release(pb **simt.BufInt32) {
	if *pb != nil {
		r.dev.Release(*pb)
		*pb = nil
	}
}

// close ends a transient run: every arena buffer except col goes back to
// the device pool. col stays out because the returned Result (including
// the partial Result inside an InvalidColoringError) aliases its backing
// array. Pooled runners keep everything — their owner releases via
// releaseAll when retiring the runner.
func (r *runner) close() {
	if r.pooled {
		return
	}
	r.release(&r.prio)
	r.release(&r.win)
	r.release(&r.wlA)
	r.release(&r.wlB)
	r.release(&r.cnt)
	r.release(&r.keep)
	r.release(&r.scr)
	r.release(&r.snap)
	r.release(&r.bigA)
	r.release(&r.bigB)
	r.ss.Release()
}

// releaseAll retires a pooled runner, returning every buffer — col
// included, which is safe because pooled runs copy colors out.
func (r *runner) releaseAll() {
	r.pooled = false
	r.close()
	r.release(&r.col)
}

// launch folds one kernel's results into the run totals. keepWavefronts
// marks kernels whose wavefront distribution feeds the imbalance figures.
func (r *runner) launch(rr *simt.RunResult, keepWavefronts bool) {
	r.res.Cycles += rr.Cycles()
	r.res.KernelCycles[rr.Stats.Name] += rr.Cycles()
	for i, b := range rr.Sched.CUBusy {
		r.res.CUBusy[i] += b
	}
	r.res.Steals += rr.Sched.Steals
	busy, busyMax := rr.Stats.BusyParts()
	r.res.busySum += busy
	r.res.busyMaxSum += busyMax
	r.res.ALUOps += rr.Stats.ALUOps
	r.res.MemAccesses += rr.Stats.MemAccesses
	r.res.MemTransactions += rr.Stats.MemTransactions
	r.res.Atomics += rr.Stats.Atomics
	r.res.CacheHits += rr.Stats.CacheHits
	r.res.ldsAccesses += rr.Stats.LDSAccesses
	if keepWavefronts {
		r.res.WavefrontWork = append(r.res.WavefrontWork, rr.Stats.WavefrontCost...)
	}
	if r.opt.Trace {
		busy := make([]int64, len(rr.Sched.CUBusy))
		copy(busy, rr.Sched.CUBusy)
		r.res.Timeline = append(r.res.Timeline, trace.Span{
			Name:   rr.Stats.Name,
			Cycles: rr.Cycles(),
			CUBusy: busy,
		})
	}
	// Everything above copied what it needed; the launch record goes back
	// to the device pools so steady-state kernels allocate nothing.
	r.dev.Recycle(rr)
}

// checkIter runs the iteration-boundary guard, if any (see Options.guard).
func (r *runner) checkIter(iter, active int) error {
	if r.opt.guard == nil {
		return nil
	}
	return r.opt.guard(iter, active, r.res.Cycles)
}

// sealColors publishes the coloring into the run's Result. Transient
// runners alias the device buffer — it is never released, exactly the
// pre-pooling behaviour. Pooled runners copy, because the col buffer will
// be re-initialized for the next job while the caller still holds the
// Result (and the repair pass may still be mutating it).
func (r *runner) sealColors() {
	if !r.pooled {
		r.res.Colors = r.col.Data()
		return
	}
	colors := make([]int32, r.n)
	copy(colors, r.col.Data())
	r.res.Colors = colors
}

// finish validates and seals the result. Colors are counted as distinct
// values because colorMaxMin can leave gaps in the color range (a final
// iteration may produce max winners but no min winners). A verification
// failure returns an *InvalidColoringError carrying the partial result so
// the resilient driver can hand it to the repair pass.
func (r *runner) finish() (*Result, error) {
	r.sealColors()
	if err := color.Verify(r.g, r.res.Colors); err != nil {
		return nil, &InvalidColoringError{Result: r.res, Err: err}
	}
	r.res.NumColors = r.countDistinct(r.res.Colors)
	return r.res, nil
}

// countDistinct counts the distinct colors in use against a runner-owned
// bitmap that grows to the largest color range seen and is reused across
// runs (it used to be allocated per finish).
func (r *runner) countDistinct(colors []int32) int {
	if len(colors) == 0 {
		return 0
	}
	need := color.NumColors(colors)
	if cap(r.seen) < need {
		r.seen = make([]bool, need)
	}
	seen := r.seen[:need]
	clear(seen)
	n := 0
	for _, c := range colors {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

// uncoloredConst mirrors color.Uncolored for use inside kernels.
const uncoloredConst = int32(-1)

// charger adapts launch accounting for gpuprim primitives.
func (r *runner) charger() gpuprim.Charger {
	return func(rr *simt.RunResult) { r.launch(rr, false) }
}

// clampCount bounds a device-reported worklist count to [0, max]. Fault-free
// runs never leave that range; under fault injection a corrupted scan total
// or append cursor must not drive the host loop out of its buffers.
func clampCount(k, max int) int {
	if k < 0 {
		return 0
	}
	if k > max {
		return max
	}
	return k
}

// compactInto rebuilds a worklist under scan compaction: src[0:count]
// entries whose r.keep flag is set move to dst, order preserved; returns
// the kept count. The scan's intermediate buffers come from the runner's
// retained scratch.
func (r *runner) compactInto(src, dst *simt.BufInt32, count int) int {
	return clampCount(gpuprim.CompactWith(r.dev, src, r.keep, dst, r.scr, count, r.ss, r.charger()), dst.Len())
}

// flagAndCompact runs a flag/append kernel (kern receives a nil next buffer
// in scan mode, meaning "write r.keep by position") and rebuilds the
// worklist under the configured compaction strategy.
func (r *runner) flagAndCompact(cur, next *simt.BufInt32, count int,
	kern func(wl, next *simt.BufInt32, count int) *simt.RunResult) int {
	if r.opt.Compaction == CompactionAtomic {
		r.cnt.Data()[0] = 0
		r.launch(kern(cur, next, count), false)
		kept := clampCount(int(r.cnt.Data()[0]), next.Len())
		sortWorklist(next, kept)
		return kept
	}
	r.launch(kern(cur, nil, count), false)
	return r.compactInto(cur, next, count)
}

// sortWorklist orders the first count worklist entries ascending. Real GPU
// implementations compact worklists with a stable prefix-sum scan, which
// preserves vertex order; the atomic-append idiom used in the kernels here
// produces the same *set* in an order that depends on execution
// interleaving. Sorting restores the scan order, which both matches the
// memory-access behaviour being modelled and makes every run bit-identical
// regardless of host parallelism.
func sortWorklist(wl *simt.BufInt32, count int) {
	if count <= 1 {
		return // already sorted; skip the sort machinery on the long tail
	}
	slices.Sort(wl.Data()[:count])
}
