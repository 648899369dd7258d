package ioqueue

// mergeIndex is the queue's elevator hash: an open-addressed map from a
// boundary sector to the most recent queued node with that boundary. It
// uses linear probing with backward-shift deletion, so no tombstones
// accumulate under queue churn, and doubles its power-of-two capacity to
// keep the load at most one half. A nil node marks an empty slot (sector
// 0 is a valid key). The zero value is an empty index.
type mergeIndex struct {
	keys  []int64
	nodes []*node
	count int
	shift uint // 64 - log2(len(keys))
}

// minIndexSlots is the first allocation; a queue rarely holds more than
// a few dozen requests, so most indexes never grow past it.
const minIndexSlots = 16

// home is k's preferred slot: a Fibonacci hash, which spreads the
// sequential, block-aligned sector numbers queues see.
func (h *mergeIndex) home(k int64) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> h.shift)
}

// get returns the node stored under k, or nil.
func (h *mergeIndex) get(k int64) *node {
	if h.count == 0 {
		return nil
	}
	mask := len(h.keys) - 1
	for i := h.home(k); h.nodes[i] != nil; i = (i + 1) & mask {
		if h.keys[i] == k {
			return h.nodes[i]
		}
	}
	return nil
}

// set stores n under k, replacing any earlier node.
func (h *mergeIndex) set(k int64, n *node) {
	if 2*(h.count+1) > len(h.keys) {
		h.grow()
	}
	mask := len(h.keys) - 1
	i := h.home(k)
	for ; h.nodes[i] != nil; i = (i + 1) & mask {
		if h.keys[i] == k {
			h.nodes[i] = n
			return
		}
	}
	h.keys[i], h.nodes[i] = k, n
	h.count++
}

// deleteIf removes k only while it still maps to n: a later node that
// took over the boundary keeps its entry.
func (h *mergeIndex) deleteIf(k int64, n *node) {
	if h.count == 0 {
		return
	}
	mask := len(h.keys) - 1
	i := h.home(k)
	for ; h.nodes[i] != nil; i = (i + 1) & mask {
		if h.keys[i] == k {
			break
		}
	}
	if h.nodes[i] != n {
		return
	}
	h.count--
	// Backward shift: pull each later entry of the probe run into the
	// hole unless its home lies cyclically after the hole, in which case
	// moving it would put it before its home.
	for j := (i + 1) & mask; h.nodes[j] != nil; j = (j + 1) & mask {
		if (j-h.home(h.keys[j]))&mask >= (j-i)&mask {
			h.keys[i], h.nodes[i] = h.keys[j], h.nodes[j]
			i = j
		}
	}
	h.nodes[i] = nil
}

func (h *mergeIndex) grow() {
	keys, nodes := h.keys, h.nodes
	slots := 2 * len(keys)
	if slots < minIndexSlots {
		slots = minIndexSlots
	}
	h.keys = make([]int64, slots)
	h.nodes = make([]*node, slots)
	h.count = 0
	h.shift = 64
	for s := slots; s > 1; s >>= 1 {
		h.shift--
	}
	for i, n := range nodes {
		if n != nil {
			h.set(keys[i], n)
		}
	}
}

// each calls fn for every entry, in slot order.
func (h *mergeIndex) each(fn func(k int64, n *node)) {
	for i, n := range h.nodes {
		if n != nil {
			fn(h.keys[i], n)
		}
	}
}
