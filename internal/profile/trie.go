package profile

import (
	"slices"

	"pathsched/internal/ir"
)

// procPathIndex is one procedure's frozen path profile: a forward trie
// over every suffix of every recorded window. A node's path from the
// root spells a block sequence, and its count is that sequence's exact
// dynamic frequency, so Freq is a walk from the root and the one-block
// extensions formation asks about (§2.2, Figure 2) are the node's
// children. The automaton of §3.1 and the Ball–Larus k-iteration path
// forest both freeze into this one shape.
//
// Nodes live in parallel slices and link by index, so a frozen profile
// holds no pointers for the garbage collector to scan. Node 0 is the
// root (the empty sequence, count 0) and doubles as the nil link. The
// root's children are indexed densely by block id in roots rather than
// linked, so the root's child list is empty: a failed find lands on a
// node with count 0 and no children.
type procPathIndex struct {
	condBr []bool
	roots  []int32      // depth-1 node by block id, 0 if the block never ran
	block  []ir.BlockID // label: the last block of the node's sequence
	count  []int64      // exact frequency of the node's sequence
	child  []int32      // first child, 0 if none
	next   []int32      // next sibling, 0 if none

	windows  int64 // total windows recorded (= dynamic blocks observed)
	distinct int   // distinct windows
}

// find returns the node spelling seq, or 0 (the root, whose count is
// 0) when seq is empty or was never indexed.
func (x *procPathIndex) find(seq []ir.BlockID) int32 {
	if len(seq) == 0 || seq[0] < 0 || int(seq[0]) >= len(x.roots) {
		return 0
	}
	v := x.roots[seq[0]]
	for _, b := range seq[1:] {
		if v == 0 {
			return 0
		}
		v = x.childOf(v, b)
	}
	return v
}

// childOf returns v's child labeled b, or 0.
func (x *procPathIndex) childOf(v int32, b ir.BlockID) int32 {
	for c := x.child[v]; c != 0; c = x.next[c] {
		if x.block[c] == b {
			return c
		}
	}
	return 0
}

// trieBuilder freezes (window, count) pairs into a procPathIndex. Each
// node keeps a suffix link to the node spelling its sequence minus the
// first block, so adding a window walks its blocks once from the root
// and then credits every suffix by following links: work linear in the
// window length, where re-walking each suffix from the root would be
// quadratic. Creating a node creates its missing suffixes first (the
// link target), so every node's link exists.
type trieBuilder struct {
	x    *procPathIndex
	link []int32
	seen []bool // node spells a window already counted
}

func newTrieBuilder(condBr []bool) *trieBuilder {
	return &trieBuilder{
		x: &procPathIndex{
			condBr: condBr,
			roots:  make([]int32, len(condBr)),
			block:  []ir.BlockID{ir.NoBlock},
			count:  []int64{0},
			child:  []int32{0},
			next:   []int32{0},
		},
		link: []int32{0},
		seen: []bool{false},
	}
}

// step returns v's child labeled b, creating it on first sight.
func (t *trieBuilder) step(v int32, b ir.BlockID) int32 {
	x := t.x
	if v == 0 {
		if r := x.roots[b]; r != 0 {
			return r
		}
		r := t.newNode(b, 0)
		x.roots[b] = r
		return r
	}
	if c := x.childOf(v, b); c != 0 {
		return c
	}
	l := t.step(t.link[v], b)
	c := t.newNode(b, l)
	x.next[c] = x.child[v]
	x.child[v] = c
	return c
}

func (t *trieBuilder) newNode(b ir.BlockID, link int32) int32 {
	x := t.x
	id := int32(len(x.block))
	x.block = push(x.block, b)
	x.count = push(x.count, 0)
	x.child = push(x.child, 0)
	x.next = push(x.next, 0)
	t.link = push(t.link, link)
	t.seen = push(t.seen, false)
	return id
}

// push appends v, doubling a full slice. append's 1.25x growth for
// large slices copies a big trie many more times: freezing gcc's
// training profile allocates 328 MB with append and 177 MB with push,
// and the Ball–Larus freeze runs about a fifth faster. done trims the
// slack doubling leaves.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s))
	}
	return append(s, v)
}

// done returns the frozen index with each node slice copied to its
// exact length, so a cached profile carries none of push's slack.
func (t *trieBuilder) done() *procPathIndex {
	x := t.x
	x.block = slices.Clone(x.block)
	x.count = slices.Clone(x.count)
	x.child = slices.Clone(x.child)
	x.next = slices.Clone(x.next)
	return x
}

// add records n occurrences of window w: w and each of its suffixes
// gain n. Zero counts and empty windows record nothing.
func (t *trieBuilder) add(w []ir.BlockID, n int64) {
	if n == 0 || len(w) == 0 {
		return
	}
	var v int32
	for _, b := range w {
		v = t.step(v, b)
	}
	x := t.x
	if !t.seen[v] {
		t.seen[v] = true
		x.distinct++
	}
	x.windows += n
	for ; v != 0; v = t.link[v] {
		x.count[v] += n
	}
}

// Walk calls fn for every node of procedure p's trie in depth-first
// preorder: roots by increasing block id, each node before its
// extensions. seq spells the node's sequence and is valid only during
// the call; n is its exact frequency. Every indexed sequence (n > 0)
// is visited, and so is every prefix of one — a prefix with n == 0
// means the profile is inconsistent (hand-written or corrupted text:
// a recorded run's profile has no such node).
func (pf *PathProfile) Walk(p ir.ProcID, fn func(seq []ir.BlockID, n int64)) {
	if int(p) >= len(pf.procs) {
		return
	}
	x := pf.procs[p]
	var seq []ir.BlockID
	var path []int32
	for _, r := range x.roots {
		seq, path = seq[:0], path[:0]
		for v := r; v != 0; {
			path = append(path, v)
			seq = append(seq, x.block[v])
			fn(seq, x.count[v])
			if c := x.child[v]; c != 0 {
				v = c
				continue
			}
			// Climb to the nearest node on the path with a next
			// sibling; the depth-1 node has none to move to.
			v = 0
			for len(path) > 1 {
				top := path[len(path)-1]
				path, seq = path[:len(path)-1], seq[:len(seq)-1]
				if s := x.next[top]; s != 0 {
					v = s
					break
				}
			}
		}
	}
}
