package simt

import "math/bits"

// Optional read-cache model. When CostModel.CacheSegments > 0, each
// workgroup execution carries a FIFO set of recently touched memory
// segments (approximating the reuse a CU's L1 captures while the group is
// resident); a transaction whose segment is cached costs MemPerHit instead
// of MemPerTransaction. The cache is per workgroup, not per CU, so the
// model stays independent of scheduling (phase A records costs before the
// scheduling policy is simulated — see the package comment).

// segTable charges a workgroup's memory instructions: it deduplicates the
// segments each instruction touches (coalescing) and runs the FIFO cache,
// both with one probe of a single open-addressed table per access.
//
// Each entry remembers the miss clock when its segment was inserted and
// the stamp of the last instruction that touched it. A segment is resident
// iff fewer than cap misses happened since its insertion: FIFO evicts
// exactly in insertion order and hits do not refresh an entry, so that
// count is its ring position. An entry stamped before the group's first
// instruction is empty, which makes the per-group reset a single store.
type segTable struct {
	cap   uint64 // CacheSegments; 0 never hits but still deduplicates
	tab   []segEntry
	spare []segEntry // compaction target, swapped with tab
	used  int        // entries inserted since the last reset or compaction
	shift uint       // 64 - log2(len(tab)), for the fibonacci hash
	base  uint64     // stamp of the group's first instruction
	now   uint64     // stamp of the current instruction
	miss  uint64     // miss clock

	// Counting-sort scratch for charge, grown monotonically.
	counts []int32
	segs   []uint64
}

type segEntry struct {
	seg   uint64
	ins   uint64 // miss clock at insertion
	stamp uint64 // last instruction that touched seg
}

const segHashMul = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// stampLimit bounds the instruction stamp: reset wipes the table and
// restarts the stamps past it, so stamps never wrap inside a group.
const stampLimit = 1 << 63

// newSegTable sizes the table for a cache of capacity segments and
// wavefronts of width lanes. A compaction leaves at most capacity entries
// and one instruction adds at most width, so a table of at least
// 4*(capacity+width) never passes 50% load.
func newSegTable(capacity, width int) *segTable {
	tabBits := 3
	for 1<<tabBits < 4*(capacity+width) {
		tabBits++
	}
	return &segTable{
		cap:   uint64(capacity),
		tab:   make([]segEntry, 1<<tabBits),
		spare: make([]segEntry, 1<<tabBits),
		shift: uint(64 - tabBits),
	}
}

// reset empties the cache for a new workgroup.
func (t *segTable) reset() {
	if t.now >= stampLimit {
		clear(t.tab)
		t.now = 0
	}
	t.base = t.now + 1
	t.used = 0
}

// charge costs a wavefront's access log, whose lanes issued at most nOrds
// accesses each. The k-th accesses of all lanes form instruction k; a
// stable counting sort by ordinal groups them while keeping each
// instruction's first-touch order, which the FIFO depends on. It returns
// the transactions (distinct segments per instruction) and cache hits.
func (t *segTable) charge(log []access, nOrds, segElems int32) (transactions, hits int64) {
	if int(nOrds) >= len(t.counts) {
		t.counts = make([]int32, nOrds+1)
	}
	counts := t.counts[:nOrds+1]
	clear(counts)
	for _, a := range log {
		counts[a.ord+1]++
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	if len(log) > cap(t.segs) {
		t.segs = make([]uint64, len(log))
	}
	segs := t.segs[:len(log)]
	// SegmentElems is a power of two on every stock cost model: shift
	// instead of divide.
	e := uint64(segElems)
	pow2 := e&(e-1) == 0
	sh := uint(bits.TrailingZeros64(e))
	for _, a := range log {
		idx := a.addr & (1<<40 - 1)
		if pow2 {
			idx >>= sh
		} else {
			idx /= e
		}
		segs[counts[a.ord]] = a.addr&^(1<<40-1) | idx
		counts[a.ord]++
	}

	mask := uint64(len(t.tab) - 1)
	start := int32(0)
	for _, end := range counts[:nOrds] {
		// An instruction inserts at most one entry per lane.
		if 2*(t.used+int(end-start)) > len(t.tab) {
			t.compact()
		}
		t.now++
		prev := ^uint64(0)
		for _, seg := range segs[start:end] {
			// Coalesced fast path: neighbouring lanes mostly share the
			// segment just charged.
			if seg == prev {
				continue
			}
			prev = seg
			i := (seg * segHashMul) >> t.shift
			for {
				en := &t.tab[i]
				if en.stamp < t.base {
					*en = segEntry{seg: seg, ins: t.miss, stamp: t.now}
					t.miss++
					t.used++
					transactions++
					break
				}
				if en.seg == seg {
					if en.stamp != t.now {
						transactions++
						if t.miss-en.ins <= t.cap {
							hits++
						} else {
							en.ins = t.miss
							t.miss++
						}
						en.stamp = t.now
					}
					break
				}
				i = (i + 1) & mask
			}
		}
		start = end
	}
	return transactions, hits
}

// compact rehashes into the spare table only the resident segments,
// dropping expired ones, whose next touch is a miss either way. It runs
// between instructions, so at most cap entries survive.
func (t *segTable) compact() {
	clear(t.spare) // stamps 0 < base: all empty
	mask := uint64(len(t.spare) - 1)
	t.used = 0
	for _, en := range t.tab {
		if en.stamp < t.base || t.miss-en.ins > t.cap {
			continue
		}
		i := (en.seg * segHashMul) >> t.shift
		for t.spare[i].stamp >= t.base {
			i = (i + 1) & mask
		}
		t.spare[i] = en
		t.used++
	}
	t.tab, t.spare = t.spare, t.tab
}
