package simt

import "sync/atomic"

// Per-wavefront cost accounting. Lanes of one wavefront execute in lockstep,
// so the wavefront pays for its busiest lane's ALU work, and each memory
// access ordinal (the k-th access issued by each lane) becomes one
// wavefront-wide memory instruction whose cost depends on how many distinct
// memory segments the active lanes touch — the coalescing model.

type laneAcc struct {
	alu       int64 // ALU ops issued by this lane
	atomics   int64 // atomic ops issued by this lane
	nAccess   int32 // global memory accesses issued (its ordinal counter)
	ldsAccess int32 // LDS accesses issued (its LDS ordinal counter)
	active    bool  // lane executed at all (grid tail masking)
}

// access is one logged global memory access: buffer<<40 | element, and the
// issuing lane's ordinal for it.
type access struct {
	addr uint64
	ord  int32
}

// wfAcc accumulates one wavefront's activity. It is scratch memory reused
// across wavefronts by each phase-A worker.
type wfAcc struct {
	lanes []laneAcc
	// log lists the global memory accesses in issue order. Segments and
	// instruction grouping are worked out at cost time (segTable.charge),
	// so recording an access is a single append.
	log      []access
	ldsOrds  []ldsOrd
	nLdsOrds int

	// ctx is the reusable lane context for data-parallel execution: one
	// Ctx per wavefront accumulator instead of one per work-item, rebuilt
	// by field assignment each lane. Bodies must not retain it past their
	// invocation (the documented Ctx contract).
	ctx Ctx
}

func newWfAcc(width int) *wfAcc {
	return &wfAcc{lanes: make([]laneAcc, width)}
}

func (w *wfAcc) reset() {
	clear(w.lanes)
	w.log = w.log[:0]
	for i := 0; i < w.nLdsOrds; i++ {
		w.ldsOrds[i].active = 0
		w.ldsOrds[i].pairs = w.ldsOrds[i].pairs[:0]
	}
	w.nLdsOrds = 0
}

// record notes that lane l issued a memory access to element idx of buffer
// buf.
func (w *wfAcc) record(l int, buf, idx int32) {
	lane := &w.lanes[l]
	w.log = append(w.log, access{uint64(uint32(buf))<<40 | uint64(uint32(idx)), lane.nAccess})
	lane.nAccess++
}

// wfCost is the costed-out summary of one wavefront.
type wfCost struct {
	cycles       int64
	busySum      int64 // sum over lanes of performed operations: utilization numerator
	busyMax      int64 // busiest lane: utilization denominator per wavefront
	aluOps       int64
	accesses     int64
	transactions int64
	atomics      int64
	ldsAccesses  int64
	cacheHits    int64
}

// cost folds the accumulated activity into cycles under cm, charging the
// memory instructions against the group's segment table.
func (w *wfAcc) cost(cm *CostModel, t *segTable) wfCost {
	var c wfCost
	var aluMax int64
	var nOrds int32
	for i := range w.lanes {
		l := &w.lanes[i]
		if !l.active {
			continue
		}
		busy := l.alu + int64(l.nAccess) + int64(l.ldsAccess)
		c.busySum += busy
		if busy > c.busyMax {
			c.busyMax = busy
		}
		if l.alu > aluMax {
			aluMax = l.alu
		}
		nOrds = max(nOrds, l.nAccess)
		c.aluOps += l.alu
		c.accesses += int64(l.nAccess)
		c.atomics += l.atomics
	}
	c.transactions, c.cacheHits = t.charge(w.log, nOrds, cm.SegmentElems)
	c.cycles = aluMax*cm.ALUOp + c.atomics*cm.AtomicOp + int64(nOrds)*cm.MemIssue +
		c.cacheHits*cm.MemPerHit + (c.transactions-c.cacheHits)*cm.MemPerTransaction
	ldsCycles, ldsAccesses := w.ldsCost(cm)
	c.cycles += ldsCycles
	c.ldsAccesses = ldsAccesses
	return c
}

// Ctx is the view a single work-item (lane) has of the device while a kernel
// body runs: its ids plus accounted memory and ALU operations. A Ctx is only
// valid for the duration of the kernel body invocation it is passed to.
//
// In a functional launch (see Mode) wf is nil and every operation below
// only touches memory: the launch decides once, by leaving wf unset, and
// each operation pays one nil test instead of its record.
type Ctx struct {
	// Global, Local and Group are the work-item's global id, id within its
	// workgroup, and workgroup id.
	Global, Local, Group int32

	cm      *CostModel
	wf      *wfAcc // nil in a functional launch
	laneIdx int
	fi      *FaultInjector // nil unless the device has an armed injector
	launch  uint64         // device launch ordinal (fault-decision key)
}

// Op charges n ALU operations to this lane.
func (c *Ctx) Op(n int) {
	if w := c.wf; w != nil {
		w.lanes[c.laneIdx].alu += int64(n)
	}
}

// Ld loads element i of b, accounting one global memory access. With a
// fault injector armed the load may return a bit-flipped value, and an
// out-of-range index returns poison (0) instead of panicking.
func (c *Ctx) Ld(b *BufInt32, i int32) int32 {
	if w := c.wf; w != nil {
		w.record(c.laneIdx, b.id, i)
		if c.fi != nil {
			return c.fi.ld(c.launch, c.Global, w.lanes[c.laneIdx].nAccess, b, i)
		}
	}
	return b.data[i]
}

// St stores v to element i of b, accounting one global memory access.
// Plain stores must not race with other lanes' accesses to the same element
// within one launch; use the Atomic variants for communication. With a
// fault injector armed an out-of-range store is dropped instead of
// panicking.
func (c *Ctx) St(b *BufInt32, i int32, v int32) {
	if w := c.wf; w != nil {
		w.record(c.laneIdx, b.id, i)
		if c.fi != nil && !c.fi.stOK(b, i) {
			return
		}
	}
	b.data[i] = v
}

// LdShared is Ld for memory that another work-item may be writing with
// StShared in the same launch: the host access is a relaxed atomic so the
// race is well-defined, but the simulated cost is that of an ordinary
// load — on GCN-class hardware relaxed atomic loads are plain VMEM
// operations, unlike the read-modify-write atomics AtomicAdd et al. model
// (which pay the AtomicOp serialization charge). The fused coloring
// kernels use this to read the live color array while winners publish
// their colors in the same pass.
func (c *Ctx) LdShared(b *BufInt32, i int32) int32 {
	if w := c.wf; w != nil {
		w.record(c.laneIdx, b.id, i)
		if c.fi != nil {
			return c.fi.ldShared(c.launch, c.Global, w.lanes[c.laneIdx].nAccess, b, i)
		}
	}
	return atomic.LoadInt32(&b.data[i])
}

// StShared is St with a relaxed-atomic host store, the writer side of the
// LdShared contract. Cost accounting is identical to St.
func (c *Ctx) StShared(b *BufInt32, i int32, v int32) {
	if w := c.wf; w != nil {
		w.record(c.laneIdx, b.id, i)
		if c.fi != nil && !c.fi.stOK(b, i) {
			return
		}
	}
	atomic.StoreInt32(&b.data[i], v)
}
