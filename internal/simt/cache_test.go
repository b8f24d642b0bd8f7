package simt

import (
	"math/rand"
	"slices"
	"testing"
)

// touch charges a one-access instruction for seg (SegmentElems 1, so the
// element address is the segment) and reports whether it hit.
func touch(t *segTable, seg uint64) bool {
	_, hits := t.charge([]access{{addr: seg}}, 1, 1)
	return hits == 1
}

func TestSegTableFIFO(t *testing.T) {
	c := newSegTable(2, 4)
	c.reset()
	if touch(c, 1) {
		t.Error("cold cache reported a hit")
	}
	if !touch(c, 1) {
		t.Error("immediate re-touch missed")
	}
	touch(c, 2)
	if !touch(c, 2) || !touch(c, 1) {
		t.Error("both entries should fit in capacity 2")
	}
	touch(c, 3) // evicts the oldest (1): hits do not refresh it
	if touch(c, 1) {
		t.Error("evicted entry reported a hit")
	}
}

func TestSegTableZeroCapacityNeverHits(t *testing.T) {
	c := newSegTable(0, 4)
	c.reset()
	if touch(c, 5) || touch(c, 5) {
		t.Error("capacity 0 reported a hit")
	}
	// Coalescing still deduplicates within one instruction.
	tx, hits := c.charge([]access{{addr: 5}, {addr: 7}, {addr: 5}}, 1, 1)
	if tx != 2 || hits != 0 {
		t.Errorf("transactions, hits = %d, %d; want 2, 0", tx, hits)
	}
}

func TestSegTableReset(t *testing.T) {
	c := newSegTable(4, 4)
	c.reset()
	touch(c, 1)
	c.reset()
	if touch(c, 1) {
		t.Error("reset cache reported a hit")
	}
}

// A segment evicted in the middle of an instruction is still that
// instruction's transaction: dedup outlives residency.
func TestSegTableDedupOutlivesEviction(t *testing.T) {
	c := newSegTable(1, 4)
	c.reset()
	tx, hits := c.charge([]access{{addr: 1}, {addr: 2}, {addr: 1}}, 1, 1)
	if tx != 2 || hits != 0 {
		t.Errorf("transactions, hits = %d, %d; want 2, 0", tx, hits)
	}
}

// refCache is the naive model the stamp table must match: a ring FIFO of
// segments plus per-instruction dedup by slice scan.
type refCache struct {
	cap  int
	ring []uint64
}

func (r *refCache) charge(log []access, nOrds int32, segElems int32) (tx, hits int64) {
	for k := int32(0); k < nOrds; k++ {
		var seen []uint64
		for _, a := range log {
			if a.ord != k {
				continue
			}
			seg := a.addr>>40<<40 | (a.addr&(1<<40-1))/uint64(segElems)
			if slices.Contains(seen, seg) {
				continue
			}
			seen = append(seen, seg)
			tx++
			if slices.Contains(r.ring, seg) {
				hits++
				continue
			}
			if r.cap == 0 {
				continue
			}
			if len(r.ring) == r.cap {
				r.ring = r.ring[1:]
			}
			r.ring = append(r.ring, seg)
		}
	}
	return tx, hits
}

// randomWavefront builds one wavefront's access log: uneven per-lane access
// counts, issued in a random interleaving (as cooperative kernels issue
// their lanes' k-th accesses out of lane order), over a small address space
// so segments repeat within and across instructions.
func randomWavefront(rng *rand.Rand, width int) ([]access, int32) {
	counts := make([]int32, width)
	var total int
	for l := range counts {
		counts[l] = int32(rng.Intn(6))
		if rng.Intn(8) == 0 {
			counts[l] += int32(rng.Intn(40)) // a hub lane
		}
		total += int(counts[l])
	}
	issued := make([]int32, width)
	log := make([]access, 0, total)
	var nOrds int32
	for len(log) < total {
		l := rng.Intn(width)
		if issued[l] == counts[l] {
			continue
		}
		buf := uint64(rng.Intn(3) + 1)
		log = append(log, access{addr: buf<<40 | uint64(rng.Intn(200)), ord: issued[l]})
		issued[l]++
		nOrds = max(nOrds, issued[l])
	}
	return log, nOrds
}

// Property: the stamp table charges exactly the transactions and hits of
// the naive FIFO model, per wavefront, across groups, capacities below the
// wavefront width, capacity 0, non-power-of-two segments and stamps started
// next to the wrap guard.
func TestSegTableMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{0, 1, 3, 16, 256} {
		for _, width := range []int{1, 16, 64} {
			for _, segElems := range []int32{1, 12, 16} {
				for _, startStamp := range []uint64{0, stampLimit - 5, ^uint64(0) - 3} {
					tab := newSegTable(capacity, width)
					tab.now = startStamp
					ref := &refCache{cap: capacity}
					for group := 0; group < 6; group++ {
						tab.reset()
						ref.ring = ref.ring[:0]
						for wf := rng.Intn(4); wf >= 0; wf-- {
							log, nOrds := randomWavefront(rng, width)
							gotTx, gotHits := tab.charge(log, nOrds, segElems)
							wantTx, wantHits := ref.charge(log, nOrds, segElems)
							if gotTx != wantTx || gotHits != wantHits {
								t.Fatalf("cap %d width %d seg %d stamp %#x group %d: got %d tx %d hits, want %d tx %d hits",
									capacity, width, segElems, startStamp, group, gotTx, gotHits, wantTx, wantHits)
							}
						}
					}
					if tab.now >= stampLimit {
						t.Errorf("stamp %#x not restarted by the wrap guard", tab.now)
					}
				}
			}
		}
	}
}

func TestCacheModelReducesKernelCost(t *testing.T) {
	run := func(cacheSegs int) (*RunResult, *Device) {
		d := NewDevice()
		d.Workers = 1
		d.WorkgroupSize = 64
		d.Cost.CacheSegments = cacheSegs
		data := d.AllocInt32(64)
		res := d.Run("reread", 64, func(c *Ctx) {
			c.Ld(data, c.Global) // 4 segments, cold
			c.Ld(data, c.Global) // same 4 segments again
		})
		return res, d
	}
	cold, dOff := run(0)
	warm, dOn := run(16)
	if cold.Stats.CacheHits != 0 {
		t.Errorf("cache-off run recorded %d hits", cold.Stats.CacheHits)
	}
	if warm.Stats.CacheHits != 4 {
		t.Errorf("CacheHits = %d, want 4 (second pass over 4 segments)", warm.Stats.CacheHits)
	}
	// Cost difference: 4 transactions at hit price instead of miss price.
	saved := 4 * (dOff.Cost.MemPerTransaction - dOn.Cost.MemPerHit)
	if cold.Stats.WavefrontCost[0]-warm.Stats.WavefrontCost[0] != saved {
		t.Errorf("cost delta = %d, want %d",
			cold.Stats.WavefrontCost[0]-warm.Stats.WavefrontCost[0], saved)
	}
}

func TestCacheIsPerGroup(t *testing.T) {
	// Two groups touching the same segment: each pays a cold miss (the
	// cache resets per workgroup).
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64
	d.Cost.CacheSegments = 16
	data := d.AllocInt32(4)
	res := d.Run("cross-group", 128, func(c *Ctx) {
		c.Ld(data, 0)
		c.Ld(data, 0)
	})
	// Within each group's wavefront: ordinal 1 cold, ordinal 2 hit -> one
	// hit per wavefront, 2 wavefronts... per group one wavefront of 64:
	// 128 items / 64 wg = 2 groups, each 1 wavefront.
	if res.Stats.CacheHits != 2 {
		t.Errorf("CacheHits = %d, want 2 (one per group, no cross-group reuse)", res.Stats.CacheHits)
	}
}
