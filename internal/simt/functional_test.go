package simt

import (
	"reflect"
	"slices"
	"testing"
)

// mixedKernels launches one data-parallel and one cooperative kernel that
// between them use every Ctx operation, and returns every buffer they
// wrote plus the order the work-items ran in. With Workers=1 the order is
// deterministic, so two devices agree on it exactly when they execute the
// same items in the same phase-A order.
func mixedKernels(d *Device) (bufs [][]int32, floats []float32, order []int32, rrs []*RunResult) {
	const n = 300 // not a multiple of any group size: exercises the grid tail
	in := d.AllocInt32(n)
	for i := range in.Data() {
		in.Data()[i] = int32(i*7919) % n
	}
	out, shared, ctr := d.AllocInt32(n), d.AllocInt32(n), d.AllocInt32(8)
	fl := d.AllocFloat32(n)
	rrs = append(rrs, d.Run("mixed", n, func(c *Ctx) {
		order = append(order, c.Global, c.Local, c.Group)
		c.Op(int(c.Global % 5))
		v := c.Ld(in, c.Global)
		c.St(out, c.Global, v+c.Local)
		c.StShared(shared, v, c.Global)
		c.AtomicAdd(ctr, c.Global&7, 1)
		c.AtomicMax(ctr, 0, c.Global)
		c.AtomicMin(ctr, 1, -c.Global)
		c.AtomicCAS(ctr, 2, c.AtomicLoad(ctr, 2), c.Global)
		c.StF(fl, c.Global, c.LdF(fl, c.Global)+float32(v))
		if c.LdShared(shared, c.Global) < 0 {
			c.AtomicStore(ctr, 3, 1)
		}
	}))
	rrs = append(rrs, d.RunCoop("coop", 5, func(g *GroupCtx) {
		lds := g.AllocLDS(g.Size())
		g.ForEach(int32(g.Size()), func(c *Ctx, i int32) {
			order = append(order, c.Global, c.Local, c.Group)
			c.LdsSt(lds, i, c.Ld(in, (g.ID()*37+i)%n))
		})
		g.Barrier()
		found := g.Any(int32(g.Size()), func(c *Ctx, i int32) bool {
			return c.LdsLd(lds, i) == g.ID()
		})
		g.One(func(c *Ctx) {
			if found {
				c.AtomicAdd(ctr, 4, 1)
			}
			c.St(out, g.ID(), c.LdsLd(lds, 0))
		})
	}))
	return [][]int32{in.Data(), out.Data(), shared.Data(), ctr.Data()}, fl.Data(), order, rrs
}

func TestFunctionalMatchesAccounted(t *testing.T) {
	for _, wg := range []int{8, 16} {
		acc, fun := testDevice(), testDevice()
		acc.WorkgroupSize, fun.WorkgroupSize = wg, wg
		fun.Mode = Functional
		aBufs, aFl, aOrder, aRes := mixedKernels(acc)
		fBufs, fFl, fOrder, fRes := mixedKernels(fun)
		for i := range aBufs {
			if !slices.Equal(aBufs[i], fBufs[i]) {
				t.Errorf("wg %d: buffer %d differs between accounted and functional", wg, i)
			}
		}
		if !slices.Equal(aFl, fFl) {
			t.Errorf("wg %d: float buffer differs", wg)
		}
		if !slices.Equal(aOrder, fOrder) {
			t.Errorf("wg %d: execution order or ids differ", wg)
		}
		for i, rr := range fRes {
			a := aRes[i]
			if a.Cycles() == 0 || a.Stats.MemAccesses == 0 {
				t.Fatalf("wg %d: accounted %s recorded nothing", wg, a.Stats.Name)
			}
			want := RunResult{Stats: KernelStats{
				Name: a.Stats.Name, Items: a.Stats.Items, Groups: a.Stats.Groups, width: a.Stats.width,
			}}
			if !reflect.DeepEqual(*rr, want) {
				t.Errorf("wg %d: functional %s = %+v, want only name and counts %+v", wg, rr.Stats.Name, *rr, want)
			}
		}
	}
}

// An attached fault injector forces accounting, armed or not.
func TestFunctionalForcedAccountedUnderFault(t *testing.T) {
	for _, armed := range []bool{true, false} {
		plain, faulted := testDevice(), testDevice()
		faulted.Mode = Functional
		faulted.Fault = NewFaultInjector(1, 0)
		if !armed {
			faulted.Fault.Disarm()
		}
		_, _, _, want := mixedKernels(plain)
		_, _, _, got := mixedKernels(faulted)
		for i := range want {
			if got[i].Cycles() != want[i].Cycles() || got[i].Stats.MemAccesses != want[i].Stats.MemAccesses {
				t.Errorf("armed=%v %s: cycles %d accesses %d, want accounted %d / %d", armed, want[i].Stats.Name,
					got[i].Cycles(), got[i].Stats.MemAccesses, want[i].Cycles(), want[i].Stats.MemAccesses)
			}
		}
	}
}

func TestFunctionalLaunchesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the budget only holds without it")
	}
	d := NewDevice()
	d.Workers = 1
	d.Mode = Functional
	data := d.AllocInt32(1 << 12)
	kern := func(c *Ctx) { c.Ld(data, (c.Global*31)&(1<<12-1)) }
	coop := func(g *GroupCtx) {
		lds := g.AllocLDS(64)
		g.ForEach(300, func(c *Ctx, i int32) { c.LdsSt(lds, i&63, c.Ld(data, i*13&(1<<12-1))) })
	}
	launch := func() {
		d.Recycle(d.Run("gather", 1<<12, kern))
		d.Recycle(d.RunCoop("coop", 16, coop))
	}
	launch()
	if a := testing.AllocsPerRun(20, launch); a != 0 {
		t.Errorf("steady-state functional launches allocated %.1f times per run, want 0", a)
	}
}
