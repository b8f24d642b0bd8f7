package simt

// Float buffers. The cost model is type-blind — a float load is accounted
// exactly like a 4-byte integer load — so BufFloat32 shares the segment and
// coalescing machinery via the same buffer-id space.

// BufFloat32 is a device buffer of 32-bit floats.
type BufFloat32 struct {
	id   int32
	data []float32
}

// AllocFloat32 allocates a zeroed device buffer of n floats.
func (d *Device) AllocFloat32(n int) *BufFloat32 {
	return d.BindFloat32(make([]float32, n))
}

// BindFloat32 wraps an existing slice as a device buffer without copying.
func (d *Device) BindFloat32(data []float32) *BufFloat32 {
	return &BufFloat32{id: d.nextBuf.Add(1), data: data}
}

// Data returns the backing slice (host view) of the buffer.
func (b *BufFloat32) Data() []float32 { return b.data }

// Len returns the element count of the buffer.
func (b *BufFloat32) Len() int { return len(b.data) }

// Fill sets every element to v (a host-side operation, not accounted).
func (b *BufFloat32) Fill(v float32) {
	for i := range b.data {
		b.data[i] = v
	}
}

// LdF loads element i of b, accounting one global memory access.
func (c *Ctx) LdF(b *BufFloat32, i int32) float32 {
	if w := c.wf; w != nil {
		w.record(c.laneIdx, b.id, i)
	}
	return b.data[i]
}

// StF stores v to element i of b, accounting one global memory access.
// The same no-race rule as St applies.
func (c *Ctx) StF(b *BufFloat32, i int32, v float32) {
	if w := c.wf; w != nil {
		w.record(c.laneIdx, b.id, i)
	}
	b.data[i] = v
}
