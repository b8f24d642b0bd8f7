package simt

import (
	"sync/atomic"
	"testing"
)

// testDevice returns a small deterministic device: 4 CUs, width-4 wavefronts,
// size-8 workgroups, single worker.
func testDevice() *Device {
	d := NewDevice()
	d.NumCUs = 4
	d.WavefrontWidth = 4
	d.WorkgroupSize = 8
	d.Workers = 1
	return d
}

func TestRunExecutesEveryItemOnce(t *testing.T) {
	d := NewDevice()
	d.Workers = 4
	const items = 10_000
	hits := make([]int32, items)
	buf := d.BindInt32(hits)
	res := d.Run("touch", items, func(c *Ctx) {
		c.AtomicAdd(buf, c.Global, 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d executed %d times", i, h)
		}
	}
	if res.Stats.Items != items {
		t.Errorf("Stats.Items = %d, want %d", res.Stats.Items, items)
	}
	wantGroups := (items + d.WorkgroupSize - 1) / d.WorkgroupSize
	if res.Stats.Groups != wantGroups {
		t.Errorf("Stats.Groups = %d, want %d", res.Stats.Groups, wantGroups)
	}
}

func TestRunIDsConsistent(t *testing.T) {
	d := testDevice()
	ok := int32(1)
	d.Run("ids", 20, func(c *Ctx) {
		group := c.Global / int32(d.WorkgroupSize)
		local := c.Global % int32(d.WorkgroupSize)
		if c.Group != group || c.Local != local {
			atomic.StoreInt32(&ok, 0)
		}
	})
	if ok != 1 {
		t.Error("work-item ids inconsistent with global id")
	}
}

func TestRunEmptyGrid(t *testing.T) {
	d := testDevice()
	res := d.Run("empty", 0, func(c *Ctx) { t.Error("body ran for empty grid") })
	if res.Stats.Groups != 0 || res.Cycles() != d.Cost.KernelLaunch {
		t.Errorf("empty kernel: groups=%d cycles=%d, want 0 groups, launch-only cycles",
			res.Stats.Groups, res.Cycles())
	}
}

func TestALUCostLockstep(t *testing.T) {
	d := testDevice()
	// Lane i of the first wavefront does i ALU ops: wavefront pays the max.
	res := d.Run("alu", 4, func(c *Ctx) {
		c.Op(int(c.Global))
	})
	if len(res.Stats.WavefrontCost) != 1 {
		t.Fatalf("wavefronts = %d, want 1", len(res.Stats.WavefrontCost))
	}
	want := 3 * d.Cost.ALUOp // max lane
	if got := res.Stats.WavefrontCost[0]; got != want {
		t.Errorf("wavefront cost = %d, want %d", got, want)
	}
	if res.Stats.ALUOps != 0+1+2+3 {
		t.Errorf("ALUOps = %d, want 6", res.Stats.ALUOps)
	}
}

func TestCoalescedVersusScatteredLoads(t *testing.T) {
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64 // one wavefront per group
	data := d.AllocInt32(64 * 64)

	coal := d.Run("coalesced", 64, func(c *Ctx) {
		c.Ld(data, c.Global) // 64 consecutive elements: 4 segments of 16
	})
	scat := d.Run("scattered", 64, func(c *Ctx) {
		c.Ld(data, c.Global*64) // stride 64: every lane its own segment
	})
	wantCoal := d.Cost.MemIssue + 4*d.Cost.MemPerTransaction
	if got := coal.Stats.WavefrontCost[0]; got != wantCoal {
		t.Errorf("coalesced wavefront cost = %d, want %d", got, wantCoal)
	}
	wantScat := d.Cost.MemIssue + 64*d.Cost.MemPerTransaction
	if got := scat.Stats.WavefrontCost[0]; got != wantScat {
		t.Errorf("scattered wavefront cost = %d, want %d", got, wantScat)
	}
	if coal.Stats.MemTransactions != 4 || scat.Stats.MemTransactions != 64 {
		t.Errorf("transactions = %d/%d, want 4/64",
			coal.Stats.MemTransactions, scat.Stats.MemTransactions)
	}
}

func TestDivergentLoopCost(t *testing.T) {
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64
	data := d.AllocInt32(64 * 100)
	// Lane 0 performs 100 loads, the rest none: the wavefront still pays one
	// memory instruction per ordinal — the paper's intra-wavefront imbalance.
	res := d.Run("divergent", 64, func(c *Ctx) {
		if c.Global == 0 {
			for i := int32(0); i < 100; i++ {
				c.Ld(data, i*64)
			}
		}
	})
	want := 100 * (d.Cost.MemIssue + d.Cost.MemPerTransaction)
	if got := res.Stats.WavefrontCost[0]; got != want {
		t.Errorf("divergent cost = %d, want %d", got, want)
	}
	// Utilization: one lane busy out of 64.
	if u := res.Stats.SIMDUtilization(); u > 0.02 {
		t.Errorf("utilization = %.3f, want ~1/64", u)
	}
}

func TestUtilizationFullWavefront(t *testing.T) {
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64
	data := d.AllocInt32(64)
	res := d.Run("uniform", 64, func(c *Ctx) {
		c.Op(5)
		c.Ld(data, c.Global)
	})
	if u := res.Stats.SIMDUtilization(); u != 1 {
		t.Errorf("uniform kernel utilization = %v, want 1", u)
	}
}

func TestGridTailMasking(t *testing.T) {
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64
	data := d.AllocInt32(64)
	// 3 items in a 64-wide wavefront: inactive lanes contribute nothing.
	res := d.Run("tail", 3, func(c *Ctx) {
		c.Ld(data, c.Global)
	})
	if res.Stats.MemAccesses != 3 {
		t.Errorf("MemAccesses = %d, want 3", res.Stats.MemAccesses)
	}
	if got, want := res.Stats.MemTransactions, int64(1); got != want {
		t.Errorf("MemTransactions = %d, want %d (3 lanes, one segment)", got, want)
	}
}

func TestStoreVisibleAfterKernel(t *testing.T) {
	d := testDevice()
	out := d.AllocInt32(16)
	d.Run("store", 16, func(c *Ctx) {
		c.St(out, c.Global, c.Global*2)
	})
	for i, v := range out.Data() {
		if v != int32(i*2) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

func TestAtomicOps(t *testing.T) {
	d := NewDevice()
	d.Workers = 8
	const items = 4096
	ctr := d.AllocInt32(4)
	d.Run("atomics", items, func(c *Ctx) {
		c.AtomicAdd(ctr, 0, 1)
		c.AtomicMax(ctr, 1, c.Global)
		c.AtomicMin(ctr, 2, -c.Global)
		if c.Global == 7 {
			c.AtomicStore(ctr, 3, 99)
		}
	})
	got := ctr.Data()
	if got[0] != items {
		t.Errorf("AtomicAdd total = %d, want %d", got[0], items)
	}
	if got[1] != items-1 {
		t.Errorf("AtomicMax = %d, want %d", got[1], items-1)
	}
	if got[2] != -(items - 1) {
		t.Errorf("AtomicMin = %d, want %d", got[2], -(items - 1))
	}
	if got[3] != 99 {
		t.Errorf("AtomicStore = %d, want 99", got[3])
	}
}

func TestAtomicCAS(t *testing.T) {
	d := testDevice()
	cell := d.AllocInt32(1)
	winners := d.AllocInt32(1)
	d.Run("cas", 100, func(c *Ctx) {
		if c.AtomicCAS(cell, 0, 0, c.Global+1) == 0 {
			c.AtomicAdd(winners, 0, 1)
		}
	})
	if winners.Data()[0] != 1 {
		t.Errorf("CAS winners = %d, want exactly 1", winners.Data()[0])
	}
	if cell.Data()[0] == 0 {
		t.Error("CAS never succeeded")
	}
}

func TestAtomicAddReturnsOldValue(t *testing.T) {
	d := testDevice()
	cell := d.AllocInt32(1)
	seen := d.AllocInt32(1)
	seen.Fill(-1)
	d.Run("old", 1, func(c *Ctx) {
		old := c.AtomicAdd(cell, 0, 5)
		c.AtomicStore(seen, 0, old)
	})
	if seen.Data()[0] != 0 {
		t.Errorf("first AtomicAdd returned %d, want 0", seen.Data()[0])
	}
	if cell.Data()[0] != 5 {
		t.Errorf("cell = %d, want 5", cell.Data()[0])
	}
}

func TestAtomicCostCharged(t *testing.T) {
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64
	ctr := d.AllocInt32(1)
	res := d.Run("atomic-cost", 64, func(c *Ctx) {
		c.AtomicAdd(ctr, 0, 1)
	})
	// 64 atomics serialize, plus the single shared-segment memory ordinal.
	want := 64*d.Cost.AtomicOp + d.Cost.MemIssue + d.Cost.MemPerTransaction
	if got := res.Stats.WavefrontCost[0]; got != want {
		t.Errorf("atomic wavefront cost = %d, want %d", got, want)
	}
	if res.Stats.Atomics != 64 {
		t.Errorf("Atomics = %d, want 64", res.Stats.Atomics)
	}
}

func TestDeviceCheckPanics(t *testing.T) {
	cases := []func(*Device){
		func(d *Device) { d.NumCUs = 0 },
		func(d *Device) { d.WavefrontWidth = 0 },
		func(d *Device) { d.WorkgroupSize = 0 },
		func(d *Device) { d.WorkgroupSize = 100 }, // not a multiple of 64
		// 0 passes a power-of-two test and would fold every access of a
		// buffer into segment 0.
		func(d *Device) { d.Cost.SegmentElems = 0 },
		// 0 would mask with 0xFFFFFFFF and never charge a bank conflict.
		func(d *Device) { d.Cost.LDSBanks = 0 },
		func(d *Device) { d.Cost.CacheSegments = -1 },
	}
	for i, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad device config did not panic", i)
				}
			}()
			d := NewDevice()
			mutate(d)
			d.Run("bad", 1, func(c *Ctx) {})
		}()
	}
}

func TestBufferBindSharesStorage(t *testing.T) {
	d := testDevice()
	host := []int32{1, 2, 3}
	buf := d.BindInt32(host)
	host[1] = 42
	if buf.Data()[1] != 42 {
		t.Error("BindInt32 copied instead of wrapping")
	}
	if buf.Len() != 3 {
		t.Errorf("Len = %d, want 3", buf.Len())
	}
	buf.Fill(7)
	if host[0] != 7 || host[2] != 7 {
		t.Error("Fill did not write through to host slice")
	}
}

func TestTotalCostSumsGroups(t *testing.T) {
	d := testDevice()
	data := d.AllocInt32(64)
	res := d.Run("sum", 64, func(c *Ctx) { c.Ld(data, c.Global) })
	var want int64
	for _, g := range res.Stats.GroupCost {
		want += g
	}
	if got := res.Stats.TotalCost(); got != want {
		t.Errorf("TotalCost = %d, want %d", got, want)
	}
}

// Steady-state launches allocate nothing: the access log, the sort buffers
// and the segment table live in the pooled worker scratch.
func TestSteadyStateLaunchesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the budget only holds without it")
	}
	d := NewDevice()
	d.Workers = 1
	data := d.AllocInt32(1 << 12)
	kern := func(c *Ctx) {
		for i := int32(0); i < c.Global%7; i++ {
			c.Ld(data, (c.Global*31+i)&(1<<12-1))
		}
	}
	coop := func(g *GroupCtx) {
		g.ForEach(300, func(c *Ctx, i int32) { c.Ld(data, i*13&(1<<12-1)) })
	}
	launch := func() {
		d.Recycle(d.Run("gather", 1<<12, kern))
		d.Recycle(d.RunCoop("coop", 16, coop))
	}
	launch()
	if a := testing.AllocsPerRun(20, launch); a != 0 {
		t.Errorf("steady-state launches allocated %.1f times per run, want 0", a)
	}
}
