package simt

import "testing"

// runAccounted calls launch b.N times and reports host nanoseconds per
// simulated global memory access, the unit the accounting path is paid in.
func runAccounted(b *testing.B, d *Device, launch func() *RunResult) {
	var accesses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := launch()
		accesses += res.Stats.MemAccesses
		d.Recycle(res)
	}
	if accesses > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
	}
}

// runFunctional is runAccounted on a Functional device. A functional
// launch counts nothing, so the accesses per launch come from one
// accounted launch first: the ns/access figures of the two variants of a
// kernel compare directly.
func runFunctional(b *testing.B, d *Device, launch func() *RunResult) {
	res := launch()
	perLaunch := res.Stats.MemAccesses
	d.Recycle(res)
	d.Mode = Functional
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Recycle(launch())
	}
	if perLaunch > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(perLaunch*int64(b.N)), "ns/access")
	}
}

func BenchmarkKernelCoalesced(b *testing.B) {
	d := NewDevice()
	data := d.AllocInt32(1 << 16)
	runAccounted(b, d, func() *RunResult {
		return d.Run("coalesced", 1<<16, func(c *Ctx) {
			c.Ld(data, c.Global)
		})
	})
}

func scatteredKernel(d *Device) func() *RunResult {
	data := d.AllocInt32(1 << 16)
	return func() *RunResult {
		return d.Run("scattered", 1<<16, func(c *Ctx) {
			c.Ld(data, (c.Global*7919)&(1<<16-1))
		})
	}
}

func BenchmarkKernelScattered(b *testing.B) {
	d := NewDevice()
	runAccounted(b, d, scatteredKernel(d))
}

func BenchmarkKernelScatteredFunctional(b *testing.B) {
	d := NewDevice()
	runFunctional(b, d, scatteredKernel(d))
}

func BenchmarkKernelAtomics(b *testing.B) {
	d := NewDevice()
	ctr := d.AllocInt32(64)
	runAccounted(b, d, func() *RunResult {
		return d.Run("atomics", 1<<14, func(c *Ctx) {
			c.AtomicAdd(ctr, c.Global&63, 1)
		})
	})
}

// gatherKernel is a thread-per-vertex CSR walk reading a random color
// array, with one hub vertex per workgroup at 50x the mean degree: the
// divergent, scattered access stream of the paper's coloring kernels.
func gatherKernel(d *Device) func() *RunResult {
	const n, meanDeg = 1 << 14, 8
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		deg := int32(meanDeg)
		if v%256 == 0 {
			deg = 50 * meanDeg
		}
		off[v+1] = off[v] + deg
	}
	adj := make([]int32, off[n])
	x := uint32(1)
	for i := range adj {
		x = x*1664525 + 1013904223
		adj[i] = int32(x>>8) & (n - 1)
	}
	offB, adjB, col := d.BindInt32(off), d.BindInt32(adj), d.AllocInt32(n)
	return func() *RunResult {
		return d.Run("gather", n, func(c *Ctx) {
			end := c.Ld(offB, c.Global+1)
			for e := c.Ld(offB, c.Global); e < end; e++ {
				c.Ld(col, c.Ld(adjB, e))
			}
		})
	}
}

func BenchmarkKernelGather(b *testing.B) {
	d := NewDevice()
	runAccounted(b, d, gatherKernel(d))
}

func BenchmarkKernelGatherFunctional(b *testing.B) {
	d := NewDevice()
	runFunctional(b, d, gatherKernel(d))
}

func coopReduceKernel(d *Device) func() *RunResult {
	data := d.AllocInt32(1 << 14)
	return func() *RunResult {
		return d.RunCoop("reduce", 64, func(g *GroupCtx) {
			g.Any(1<<8, func(c *Ctx, j int32) bool {
				return c.Ld(data, (g.ID()<<8)+j) > 0
			})
		})
	}
}

func BenchmarkCoopReduce(b *testing.B) {
	d := NewDevice()
	runAccounted(b, d, coopReduceKernel(d))
}

func BenchmarkCoopReduceFunctional(b *testing.B) {
	d := NewDevice()
	runFunctional(b, d, coopReduceKernel(d))
}

func BenchmarkStealingSimulation(b *testing.B) {
	d := NewDevice()
	costs := make([]int64, 4096)
	for i := range costs {
		costs[i] = int64(i%97) * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateSchedule(d, costs, Stealing)
	}
}
