package simt

import "sync/atomic"

// Atomic operations. These are the only accesses that may race between
// work-items within one kernel launch (matching OpenCL semantics, and
// keeping the Go memory model happy under the race detector). Each costs a
// memory access plus the per-atomic serialization charge.

func (c *Ctx) atomicAccount(b *BufInt32, i int32) {
	if w := c.wf; w != nil {
		w.record(c.laneIdx, b.id, i)
		w.lanes[c.laneIdx].atomics++
	}
}

// atomicOK reports whether the accounted atomic may touch memory; with a
// fault injector armed, out-of-range atomics are dropped (the lane sees 0)
// instead of panicking.
func (c *Ctx) atomicOK(b *BufInt32, i int32) bool {
	return c.fi == nil || c.fi.atomicOK(b, i)
}

// AtomicLoad returns element i of b with acquire semantics.
func (c *Ctx) AtomicLoad(b *BufInt32, i int32) int32 {
	c.atomicAccount(b, i)
	if !c.atomicOK(b, i) {
		return 0
	}
	return atomic.LoadInt32(&b.data[i])
}

// AtomicStore writes v to element i of b with release semantics.
func (c *Ctx) AtomicStore(b *BufInt32, i int32, v int32) {
	c.atomicAccount(b, i)
	if !c.atomicOK(b, i) {
		return
	}
	atomic.StoreInt32(&b.data[i], v)
}

// AtomicAdd adds delta to element i of b and returns the previous value
// (OpenCL atomic_add semantics).
func (c *Ctx) AtomicAdd(b *BufInt32, i int32, delta int32) int32 {
	c.atomicAccount(b, i)
	if !c.atomicOK(b, i) {
		return 0
	}
	return atomic.AddInt32(&b.data[i], delta) - delta
}

// AtomicCAS performs compare-and-swap on element i of b, returning the value
// observed before the operation (OpenCL atomic_cmpxchg semantics). With a
// fault injector armed the CAS may spuriously fail: memory is untouched and
// the lane observes the bitwise complement of its expected value.
func (c *Ctx) AtomicCAS(b *BufInt32, i int32, old, new int32) int32 {
	c.atomicAccount(b, i)
	if !c.atomicOK(b, i) {
		return 0
	}
	if c.fi != nil && c.fi.failCAS(c.launch, c.Global, int32(c.wf.lanes[c.laneIdx].atomics)) {
		return ^old
	}
	for {
		cur := atomic.LoadInt32(&b.data[i])
		if cur != old {
			return cur
		}
		if atomic.CompareAndSwapInt32(&b.data[i], old, new) {
			return old
		}
	}
}

// AtomicMax raises element i of b to at least v, returning the previous
// value.
func (c *Ctx) AtomicMax(b *BufInt32, i int32, v int32) int32 {
	c.atomicAccount(b, i)
	if !c.atomicOK(b, i) {
		return 0
	}
	for {
		cur := atomic.LoadInt32(&b.data[i])
		if cur >= v {
			return cur
		}
		if atomic.CompareAndSwapInt32(&b.data[i], cur, v) {
			return cur
		}
	}
}

// AtomicMin lowers element i of b to at most v, returning the previous
// value.
func (c *Ctx) AtomicMin(b *BufInt32, i int32, v int32) int32 {
	c.atomicAccount(b, i)
	if !c.atomicOK(b, i) {
		return 0
	}
	for {
		cur := atomic.LoadInt32(&b.data[i])
		if cur <= v {
			return cur
		}
		if atomic.CompareAndSwapInt32(&b.data[i], cur, v) {
			return cur
		}
	}
}
