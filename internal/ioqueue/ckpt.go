package ioqueue

import (
	"sort"

	"lbica/internal/block"
	"lbica/internal/ckpt"
)

func init() {
	// The merge-chain completer: its payload is (owning queue, earlier
	// chain link, absorbed request). The queue resolves through the
	// component map at alloc time so the two-phase fill only walks the
	// request graph.
	ckpt.RegisterCompleter("ioqueue.chain",
		func(d *ckpt.Decoder) block.Completer {
			q, ok := d.ComponentRef().(*Queue)
			if !ok {
				d.Failf("chain completer references a non-queue component")
				return nil
			}
			return &chain{q: q}
		},
		func(d *ckpt.Decoder, c block.Completer) {
			ch := c.(*chain)
			ch.prev = d.Completer()
			ch.absorbed = d.Request()
			if ch.absorbed == nil && d.Err() == nil {
				d.Failf("chain completer without an absorbed request")
			}
		})
}

// CkptKind implements ckpt.EncodableCompleter.
func (c *chain) CkptKind() string { return "ioqueue.chain" }

// EncodeCkpt implements ckpt.EncodableCompleter.
func (c *chain) EncodeCkpt(e *ckpt.Encoder) {
	e.ComponentRef(c.q)
	e.Completer(c.prev)
	e.Request(c.absorbed)
}

// encodeHash writes an elevator hash as sorted (boundary key, node list
// position) pairs. The hashes cannot be rebuilt from the node list alone:
// an entry overwritten by a later arrival and then vacated stays absent
// even though a queued node carries that boundary, and merge-candidate
// lookups observe the difference.
func encodeHash(enc *ckpt.Encoder, h *mergeIndex, pos map[*node]int) {
	type entry struct {
		k int64
		n *node
	}
	entries := make([]entry, 0, h.count)
	h.each(func(k int64, n *node) { entries = append(entries, entry{k, n}) })
	sort.Slice(entries, func(i, j int) bool { return entries[i].k < entries[j].k })
	enc.U32(uint32(len(entries)))
	for _, e := range entries {
		enc.I64(e.k)
		enc.Int(pos[e.n])
	}
}

// decodeHash reads a hash written by encodeHash against the decoded node
// list.
func decodeHash(d *ckpt.Decoder, nodes []*node) mergeIndex {
	var h mergeIndex
	n := d.Count(16)
	for i := 0; i < n; i++ {
		k := d.I64()
		p := d.Int()
		if d.Err() != nil {
			return h
		}
		if p < 0 || p >= len(nodes) {
			d.Failf("hash entry %d references node position %d (queue depth %d)", i, p, len(nodes))
			return h
		}
		h.set(k, nodes[p])
	}
	return h
}

// EncodeState serializes the queue: pending requests in list order (via
// the shared request-graph encoder, so a request also held by a server op
// round-trips to one clone), the census and cumulative counters, the
// dispatch-discipline state, and both elevator hashes. The node/chain
// pools are behavior-invisible (pooled objects fully reset on reuse) and
// excluded, exactly as Clone excludes them.
func (q *Queue) EncodeState(enc *ckpt.Encoder) {
	enc.Section("ioqueue.Queue")
	enc.String(q.name)
	enc.U32(uint32(q.size))
	pos := make(map[*node]int, q.size)
	i := 0
	for n := q.head; n != nil; n = n.next {
		enc.Request(n.req)
		pos[n] = i
		i++
	}
	for _, c := range q.census {
		enc.Int(c)
	}
	encodeHash(enc, &q.backHash, pos)
	encodeHash(enc, &q.frontHash, pos)
	enc.I64(q.maxMergeSectors)
	enc.U8(uint8(q.discipline))
	enc.I64(q.headPos)
	enc.Bool(q.sweepUp)
	enc.U64(q.pushed)
	enc.U64(q.popped)
	enc.U64(q.merges)
	enc.U64(q.bypassed)
	enc.Int(q.depthPeak)
	for _, c := range q.arrivals {
		enc.Int(c)
	}
}

// DecodeState restores the queue in place. The queue must already be
// registered on the decoder's component map (chain completers inside the
// request graph resolve their owning queue through it), and its recycle
// hook — wired by the freshly built stack — is left untouched.
func (q *Queue) DecodeState(d *ckpt.Decoder) {
	d.Section("ioqueue.Queue")
	name := d.String()
	if d.Err() != nil {
		return
	}
	if name != q.name {
		d.Failf("queue name mismatch: checkpoint has %q, stack has %q", name, q.name)
		return
	}
	size := d.Count(4)
	nodes := make([]*node, size)
	var head, tail *node
	for i := range nodes {
		r := d.Request()
		if d.Err() != nil {
			return
		}
		if r == nil {
			d.Failf("queue %q node %d has no request", name, i)
			return
		}
		n := &node{req: r}
		nodes[i] = n
		if tail == nil {
			head, tail = n, n
		} else {
			n.prev = tail
			tail.next = n
			tail = n
		}
	}
	var census block.Census
	for i := range census {
		census[i] = d.Int()
	}
	backHash := decodeHash(d, nodes)
	frontHash := decodeHash(d, nodes)
	maxMergeSectors := d.I64()
	discipline := Discipline(d.U8())
	headPos := d.I64()
	sweepUp := d.Bool()
	pushed := d.U64()
	popped := d.U64()
	merges := d.U64()
	bypassed := d.U64()
	depthPeak := d.Int()
	var arrivals block.Census
	for i := range arrivals {
		arrivals[i] = d.Int()
	}
	if d.Err() != nil {
		return
	}
	if discipline > LookDispatch {
		d.Failf("queue %q has invalid discipline %d", name, discipline)
		return
	}
	q.head, q.tail = head, tail
	q.size = size
	q.freeNodes = nil
	q.freeChains = nil
	q.census = census
	q.backHash = backHash
	q.frontHash = frontHash
	q.maxMergeSectors = maxMergeSectors
	q.discipline = discipline
	q.headPos = headPos
	q.sweepUp = sweepUp
	q.pushed = pushed
	q.popped = popped
	q.merges = merges
	q.bypassed = bypassed
	q.depthPeak = depthPeak
	q.arrivals = arrivals
}
