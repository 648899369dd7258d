package array

import "lbica/internal/ckpt"

// EncodeState serializes the router's mutable state — the register
// of its dedicated "array:router" stream. Width, policy, and the Zipf
// CDF are immutable configuration the restoring side rebuilds from; they
// are written only as cross-checks.
func (r *Router) EncodeState(enc *ckpt.Encoder) {
	enc.Section("array.Router")
	enc.Int(r.n)
	enc.U8(uint8(r.policy))
	enc.Bool(r.rng != nil)
	if r.rng != nil {
		r.rng.EncodeState(enc)
	}
}

// DecodeState restores the router in place. A checkpoint written under a
// different width or policy is corrupt relative to this configuration.
func (r *Router) DecodeState(d *ckpt.Decoder) {
	d.Section("array.Router")
	n := d.Int()
	policy := Policy(d.U8())
	hasRNG := d.Bool()
	if d.Err() != nil {
		return
	}
	if n != r.n || policy != r.policy {
		d.Failf("array: router mismatch: checkpoint is %d-volume %s, stack is %d-volume %s",
			n, policy, r.n, r.policy)
		return
	}
	if hasRNG != (r.rng != nil) {
		d.Failf("array: router RNG presence mismatch for policy %s", policy)
		return
	}
	if r.rng != nil {
		r.rng.DecodeState(d)
	}
}

// EncodeState serializes the routed sub-stream position: the private
// router copy and the base stream it filters. The Filter wrapper is
// stateless wiring the restoring side rebuilds.
func (g *volumeGen) EncodeState(enc *ckpt.Encoder) {
	enc.Section("array.volumeGen")
	enc.Int(g.vol)
	g.rt.EncodeState(enc)
	sc, ok := g.inner.(ckpt.StateCodec)
	if !ok {
		enc.Failf("array: volume %d wraps non-checkpointable generator %T", g.vol, g.inner)
		return
	}
	sc.EncodeState(enc)
}

// DecodeState restores the sub-stream in place.
func (g *volumeGen) DecodeState(d *ckpt.Decoder) {
	d.Section("array.volumeGen")
	vol := d.Int()
	if d.Err() != nil {
		return
	}
	if vol != g.vol {
		d.Failf("array: checkpoint is for volume %d, stack hosts volume %d", vol, g.vol)
		return
	}
	g.rt.DecodeState(d)
	sc, ok := g.inner.(ckpt.StateCodec)
	if !ok {
		d.Failf("array: volume %d wraps non-checkpointable generator %T", g.vol, g.inner)
		return
	}
	sc.DecodeState(d)
}
