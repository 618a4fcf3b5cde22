package profile

import (
	"math/bits"
	"sort"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// PathConfig parameterizes general-path profiling.
type PathConfig struct {
	// Depth is the maximum number of conditional or multiway branches
	// a path window may contain (paper: 15). Zero means DefaultDepth.
	Depth int
	// MaxBlocks caps a window's block length. Zero means
	// DefaultMaxBlocks.
	MaxBlocks int
	// CrossActivation keeps one window per *procedure* rather than per
	// activation: a recursive call interleaves its blocks into the
	// caller's window instead of starting fresh. This approximates an
	// instrumentation scheme with global per-procedure analysis state
	// (plausibly the paper's, which observes a flat edge stream); the
	// default per-activation windows are cleaner but see only very
	// short histories in heavily recursive code such as li.
	CrossActivation bool
}

// Normalized resolves zero fields to their defaults. Two configs with
// equal Normalized values profile identically, which is what cache
// keys over profiling parameters must compare (the pipeline's compile
// cache collapses an explicit Depth: 15 and the default-by-omission
// config to one entry this way).
func (c PathConfig) Normalized() PathConfig {
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.MaxBlocks == 0 {
		c.MaxBlocks = DefaultMaxBlocks
	}
	return c
}

func (c PathConfig) withDefaults() PathConfig { return c.Normalized() }

// pathNode is one lazily-created state of the path automaton: the
// window of recently-executed blocks it represents, the number of
// branch-terminated blocks inside that window, its execution count,
// and successor pointers keyed by the next executed block — a dense
// slice indexed by BlockID in dense mode (allocated lazily on the
// first successor insert), a map in the fallback mode.
type pathNode struct {
	seq      []ir.BlockID
	branches int
	count    int64
	dense    []*pathNode
	succ     map[ir.BlockID]*pathNode
}

// denseLimit is the per-procedure block-count threshold for dense
// successor slices. Below it, a node's successor table costs at most
// denseLimit pointers (1KB) and the steady-state step is one array
// index; above it, nodes fall back to maps so sparse automatons over
// huge CFGs don't pay quadratic memory.
const denseLimit = 128

// procPaths holds the automaton for one procedure. Nodes are interned
// by window contents, so a loop that repeats the same paths reuses the
// same nodes and total node count stays proportional to the number of
// *distinct* paths — the paper's O(npaths + nedges) bound. The intern
// table is consulted only on the first traversal of a transition —
// it is keyed by a sequence hash with exact comparison inside the
// bucket, so interning never materializes a key string — and
// afterwards the cached successor pointer makes the step O(1): an
// array index in dense mode, a map probe in the fallback.
type procPaths struct {
	condBr  []bool // per block: terminator is a conditional branch
	nblocks int
	dense   bool                     // nblocks <= denseLimit
	roots   []*pathNode              // dense mode: window starts, by first block
	rootsM  map[ir.BlockID]*pathNode // fallback mode
	intern  map[uint64][]*pathNode   // seqHash → bucket
	// nodesList holds every interned node in creation order; freezing
	// walks it as is, serialization sorts it (see sortedNodes).
	nodesList []*pathNode
	nodes     int // total distinct nodes, for overhead statistics
}

// PathProfiler is an interp.Observer implementing the efficient
// general-path profiling algorithm of §3.1: it maintains the current
// path node per activation and follows (or lazily creates) successor
// pointers on each executed edge, so steady-state work per edge is a
// single map probe.
type PathProfiler struct {
	cfg   PathConfig
	procs []*procPaths

	// stack holds the current path node per live activation; Enter and
	// Exit events keep it aligned with the call stack, so recursion in
	// the profiled program does not corrupt windows.
	stack []*pathNode
	// procStack mirrors stack with the owning procedure.
	procStack []ir.ProcID
	// prevStack mirrors stack with the previously executed block of
	// each activation (NoBlock before the first).
	prevStack []ir.BlockID

	// procCur and procPrev replace the activation stack when
	// CrossActivation is set: one cursor per procedure.
	procCur  []*pathNode
	procPrev []ir.BlockID

	// forward, when true, truncates windows at loop back edges,
	// turning the profiler into a forward-path profiler (see
	// NewForwardPathProfiler). backEdges is per procedure.
	forward   bool
	backEdges []map[[2]ir.BlockID]bool

	dynEdges int64

	// Batch-delivery statistics (see EdgeBatch), surfaced by
	// BatchStats for cmd/experiments -profstats.
	batches   int64
	batchRecs int64
}

// NewPathProfiler returns a general-path profiler for prog.
func NewPathProfiler(prog *ir.Program, cfg PathConfig) *PathProfiler {
	cfg = cfg.withDefaults()
	pp := &PathProfiler{cfg: cfg, procs: make([]*procPaths, len(prog.Procs))}
	for i, p := range prog.Procs {
		condBr := condBrMap(p)
		st := &procPaths{
			condBr:  condBr,
			nblocks: len(condBr),
			intern:  map[uint64][]*pathNode{},
		}
		if st.nblocks <= denseLimit {
			st.dense = true
			st.roots = make([]*pathNode, st.nblocks)
		} else {
			st.rootsM = map[ir.BlockID]*pathNode{}
		}
		pp.procs[i] = st
	}
	if cfg.CrossActivation {
		pp.procCur = make([]*pathNode, len(prog.Procs))
		pp.procPrev = make([]ir.BlockID, len(prog.Procs))
		for i := range pp.procPrev {
			pp.procPrev[i] = ir.NoBlock
		}
	}
	return pp
}

// EnterProc implements interp.Observer.
func (pp *PathProfiler) EnterProc(p ir.ProcID, entry ir.BlockID) {
	pp.stack = append(pp.stack, nil)
	pp.procStack = append(pp.procStack, p)
	pp.prevStack = append(pp.prevStack, ir.NoBlock)
}

// ExitProc implements interp.Observer. A mismatched exit — one whose
// procedure is not the innermost live activation, as a malformed or
// replayed event stream can produce — is ignored defensively, mirroring
// Block; popping unconditionally would silently corrupt the caller's
// window.
func (pp *PathProfiler) ExitProc(p ir.ProcID) {
	n := len(pp.stack)
	if n == 0 || pp.procStack[n-1] != p {
		return
	}
	pp.stack = pp.stack[:n-1]
	pp.procStack = pp.procStack[:n-1]
	pp.prevStack = pp.prevStack[:n-1]
}

// Edge implements interp.Observer. All window extension happens in
// Block events; edges only feed the overhead statistic.
func (pp *PathProfiler) Edge(p ir.ProcID, from, to ir.BlockID) { pp.dynEdges++ }

// Block implements interp.Observer: extend the current window by b and
// count the resulting path. The window cursor lives per activation by
// default, or per procedure under CrossActivation.
func (pp *PathProfiler) Block(p ir.ProcID, b ir.BlockID) {
	var cur *pathNode
	var prev ir.BlockID
	if pp.procCur != nil {
		cur, prev = pp.procCur[p], pp.procPrev[p]
	} else {
		top := len(pp.stack) - 1
		if top < 0 || pp.procStack[top] != p {
			return // events from an unmatched activation; ignore defensively
		}
		cur, prev = pp.stack[top], pp.prevStack[top]
	}
	nxt := pp.step(p, pp.procs[p], cur, prev, b)
	if pp.procCur != nil {
		pp.procCur[p] = nxt
		pp.procPrev[p] = b
	} else {
		top := len(pp.stack) - 1
		pp.stack[top] = nxt
		pp.prevStack[top] = b
	}
}

// step advances one automaton transition: extend the window ending at
// cur by block b, counting the resulting path. Shared by the per-event
// Block path and the batched EdgeBatch path so both observe identical
// automatons.
func (pp *PathProfiler) step(p ir.ProcID, st *procPaths, cur *pathNode, prev, b ir.BlockID) *pathNode {
	if pp.forward && cur != nil {
		// Forward paths end at back edges: crossing one starts a new
		// window at b.
		if prev != ir.NoBlock && pp.backEdges[p][[2]ir.BlockID{prev, b}] {
			cur = nil
		}
	}
	nxt := st.lookup(cur, b)
	if nxt == nil {
		nxt = pp.stepNew(st, cur, b)
	}
	nxt.count++
	return nxt
}

// lookup follows the cached successor (or root) pointer for block b,
// returning nil on a first-traversal miss.
func (st *procPaths) lookup(cur *pathNode, b ir.BlockID) *pathNode {
	if cur == nil {
		if st.dense {
			return st.roots[b]
		}
		return st.rootsM[b]
	}
	if st.dense {
		if d := cur.dense; d != nil {
			return d[b]
		}
		return nil
	}
	return cur.succ[b]
}

// stepNew handles the cold first traversal of a transition: intern the
// extended window and cache the successor (or root) pointer. The
// caller counts the returned node.
func (pp *PathProfiler) stepNew(st *procPaths, cur *pathNode, b ir.BlockID) *pathNode {
	if cur == nil {
		nxt := st.internNode([]ir.BlockID{b})
		if st.dense {
			st.roots[b] = nxt
		} else {
			st.rootsM[b] = nxt
		}
		return nxt
	}
	nxt := st.internNode(pp.extend(st, cur, b))
	if st.dense {
		if cur.dense == nil {
			cur.dense = make([]*pathNode, st.nblocks)
		}
		cur.dense[b] = nxt
	} else {
		if cur.succ == nil {
			cur.succ = map[ir.BlockID]*pathNode{}
		}
		cur.succ[b] = nxt
	}
	return nxt
}

// BeginProc implements interp.BatchObserver: an activation begins with
// its entry block already entered (BeginProc ≡ EnterProc + Block).
func (pp *PathProfiler) BeginProc(p ir.ProcID, entry ir.BlockID) {
	pp.EnterProc(p, entry)
	pp.Block(p, entry)
}

// EndProc implements interp.BatchObserver.
func (pp *PathProfiler) EndProc(p ir.ProcID) { pp.ExitProc(p) }

// EdgeBatch implements interp.BatchObserver: the hot path of batched
// training runs. The activation cursor is loaded once per batch
// instead of once per event, and in dense non-forward mode (the
// pipeline's configuration) the steady-state step is two pointer loads
// and an increment per edge. The automaton built is identical to the
// per-event path's — each record is exactly one Block event whose
// Edge half carried no extra information.
func (pp *PathProfiler) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	pp.batches++
	pp.batchRecs += int64(len(recs))
	pp.dynEdges += int64(len(recs))
	if len(recs) == 0 {
		return
	}
	var cur *pathNode
	var prev ir.BlockID
	if pp.procCur != nil {
		cur, prev = pp.procCur[p], pp.procPrev[p]
	} else {
		top := len(pp.stack) - 1
		if top < 0 || pp.procStack[top] != p {
			return // records from an unmatched activation; ignore defensively
		}
		cur, prev = pp.stack[top], pp.prevStack[top]
	}
	st := pp.procs[p]
	if st.dense && !pp.forward {
		for i := range recs {
			b := recs[i].To
			var nxt *pathNode
			if cur == nil {
				nxt = st.roots[b]
			} else if d := cur.dense; d != nil {
				nxt = d[b]
			}
			if nxt == nil {
				nxt = pp.stepNew(st, cur, b)
			}
			nxt.count++
			cur = nxt
		}
	} else {
		for i := range recs {
			b := recs[i].To
			cur = pp.step(p, st, cur, prev, b)
			prev = b
		}
	}
	prev = recs[len(recs)-1].To
	if pp.procCur != nil {
		pp.procCur[p] = cur
		pp.procPrev[p] = prev
	} else {
		top := len(pp.stack) - 1
		pp.stack[top] = cur
		pp.prevStack[top] = prev
	}
}

// extend computes the window that follows cur when block b executes:
// append b, then trim from the front until the window respects both
// the branch-depth bound and the block-length cap.
func (pp *PathProfiler) extend(st *procPaths, cur *pathNode, b ir.BlockID) []ir.BlockID {
	seq := make([]ir.BlockID, 0, len(cur.seq)+1)
	seq = append(seq, cur.seq...)
	seq = append(seq, b)
	branches := cur.branches
	if st.condBr[b] {
		branches++
	}
	start := 0
	for branches > pp.cfg.Depth || len(seq)-start > pp.cfg.MaxBlocks {
		if st.condBr[seq[start]] {
			branches--
		}
		start++
	}
	return seq[start:]
}

// internNode returns the unique node for the given window, creating it
// on first sight. The table is keyed by a 64-bit FNV-1a hash of the
// sequence with exact comparison inside the bucket — node creation no
// longer materializes a key string; seqKey strings are regenerated
// only when freezing or serializing (see sortedNodes).
func (st *procPaths) internNode(seq []ir.BlockID) *pathNode {
	h := seqHash(seq)
	for _, nd := range st.intern[h] {
		if seqEqual(nd.seq, seq) {
			return nd
		}
	}
	branches := 0
	for _, b := range seq {
		if st.condBr[b] {
			branches++
		}
	}
	st.nodes++
	nd := &pathNode{seq: seq, branches: branches}
	st.intern[h] = append(st.intern[h], nd)
	st.nodesList = append(st.nodesList, nd)
	return nd
}

// seqHash is 64-bit FNV-1a over the block ids.
func seqHash(seq []ir.BlockID) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range seq {
		h ^= uint64(uint32(b))
		h *= 1099511628211
	}
	return h
}

func seqEqual(a, b []ir.BlockID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedNodes returns every interned node in the order WriteText has
// always listed windows: by their 4-byte little-endian encodings
// compared as byte strings — block by block, each id ordered by its
// low byte first, and a window before its extensions.
func (st *procPaths) sortedNodes() []*pathNode {
	out := append([]*pathNode(nil), st.nodesList...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].seq, out[j].seq
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return bits.ReverseBytes32(uint32(a[k])) < bits.ReverseBytes32(uint32(b[k]))
			}
		}
		return len(a) < len(b)
	})
	return out
}

// Stats reports profiling overhead: distinct path nodes created and
// dynamic edges observed. The paper's efficiency argument is that
// nodes ≪ edges in steady state.
func (pp *PathProfiler) Stats() (nodes int, dynEdges int64) {
	for _, st := range pp.procs {
		nodes += st.nodes
	}
	return nodes, pp.dynEdges
}

// ProcAutomatonStats describes one procedure's path automaton for
// overhead reporting (cmd/experiments -profstats).
type ProcAutomatonStats struct {
	Proc  ir.ProcID
	Nodes int  // distinct path nodes created
	Dense bool // dense successor slices vs map fallback
}

// AutomatonStats reports every procedure's automaton size and
// successor-table mode.
func (pp *PathProfiler) AutomatonStats() []ProcAutomatonStats {
	out := make([]ProcAutomatonStats, len(pp.procs))
	for i, st := range pp.procs {
		out[i] = ProcAutomatonStats{Proc: ir.ProcID(i), Nodes: st.nodes, Dense: st.dense}
	}
	return out
}

// BatchStats reports how many EdgeBatch deliveries the profiler
// received and how many edge records they carried in total (zero on
// per-event runs).
func (pp *PathProfiler) BatchStats() (batches, records int64) {
	return pp.batches, pp.batchRecs
}

// Profile freezes the gathered data into a queryable PathProfile: each
// recorded window adds its count to every one of its suffixes in the
// procedure's trie, so Freq answers exact dynamic occurrence counts for
// any sequence within the profiled depth.
func (pp *PathProfiler) Profile() *PathProfile {
	out := &PathProfile{cfg: pp.cfg, procs: make([]*procPathIndex, len(pp.procs))}
	for i, st := range pp.procs {
		t := newTrieBuilder(st.condBr)
		for _, nd := range st.nodesList {
			t.add(nd.seq, nd.count)
		}
		out.procs[i] = t.done()
	}
	return out
}

// PathProfile answers exact path-frequency queries (paper §2.2). A
// frozen profile is immutable: every method only reads the tries, so
// one profile may serve any number of goroutines at once (the parallel
// pipeline relies on this).
type PathProfile struct {
	cfg   PathConfig
	procs []*procPathIndex
}

// Depth returns the branch-depth bound the profile was gathered with.
func (pf *PathProfile) Depth() int { return pf.cfg.Depth }

// Config returns the (normalized) configuration the profile was
// gathered with — the value cache keys over profiling parameters must
// reproduce after a serialize→parse round trip.
func (pf *PathProfile) Config() PathConfig { return pf.cfg }

// CrossActivation reports whether the profile was gathered with one
// window per procedure (recursion interleaves) rather than one per
// activation. Consumers comparing path-derived point statistics against
// an edge profile of the same run can expect exact agreement only when
// this is false.
func (pf *PathProfile) CrossActivation() bool { return pf.cfg.CrossActivation }

// NumProcs returns the number of procedures the profile covers.
func (pf *PathProfile) NumProcs() int { return len(pf.procs) }

// Freq returns the exact number of times the contiguous block sequence
// seq executed in procedure p, provided seq fits within the profiling
// depth (use TrimToDepth first for longer sequences). Sequences beyond
// the profiled depth return 0.
func (pf *PathProfile) Freq(p ir.ProcID, seq []ir.BlockID) int64 {
	x := pf.procs[p]
	return x.count[x.find(seq)]
}

// BlockFreq returns the execution count of a single block.
func (pf *PathProfile) BlockFreq(p ir.ProcID, b ir.BlockID) int64 {
	return pf.Freq(p, []ir.BlockID{b})
}

// EdgeFreq returns the execution count of the CFG edge from→to,
// derived from the path data (a point statistic is a sum of paths).
func (pf *PathProfile) EdgeFreq(p ir.ProcID, from, to ir.BlockID) int64 {
	return pf.Freq(p, []ir.BlockID{from, to})
}

// SuccFreqs returns the observed one-block extensions of seq and their
// exact frequencies: for each block s that ever executed immediately
// after seq, the count of seq·s. The caller must pass a sequence
// already within depth.
func (pf *PathProfile) SuccFreqs(p ir.ProcID, seq []ir.BlockID) map[ir.BlockID]int64 {
	x := pf.procs[p]
	out := map[ir.BlockID]int64{}
	for c := x.child[x.find(seq)]; c != 0; c = x.next[c] {
		if x.count[c] > 0 {
			out[x.block[c]] = x.count[c]
		}
	}
	return out
}

// MostLikelyPathSuccessor implements the paper's Figure 2 primitive:
// the successor block s maximizing f(seq·s), with its frequency.
// Returns (NoBlock, 0) when seq was never extended. Ties break toward
// the smallest block id for determinism.
func (pf *PathProfile) MostLikelyPathSuccessor(p ir.ProcID, seq []ir.BlockID) (ir.BlockID, int64) {
	x := pf.procs[p]
	best, bestN := ir.NoBlock, int64(0)
	for c := x.child[x.find(seq)]; c != 0; c = x.next[c] {
		if n := x.count[c]; n > bestN || (n == bestN && n > 0 && x.block[c] < best) {
			best, bestN = x.block[c], n
		}
	}
	return best, bestN
}

// TrimToDepth returns the longest suffix of seq whose conditional
// branch count is within the profiling depth and whose length is
// within the window cap — the "longest suffix of the superblock for
// which we have exact frequencies" from §2.2. One branch slot is
// reserved so the suffix can still be extended by one block. The
// suffix never shrinks below the final block: single blocks are always
// recorded, so returning at least seq's last block keeps Freq and
// SuccFreqs queries meaningful even when every block consumes depth
// (e.g. an all-conditional sequence at Depth 1, where a full trim would
// yield an empty suffix and silently disable path guidance).
func (pf *PathProfile) TrimToDepth(p ir.ProcID, seq []ir.BlockID) []ir.BlockID {
	condBr := pf.procs[p].condBr
	branches := 0
	for _, b := range seq {
		if int(b) < len(condBr) && condBr[b] {
			branches++
		}
	}
	start := 0
	for start < len(seq)-1 && (branches > pf.cfg.Depth-1 || len(seq)-start > pf.cfg.MaxBlocks-1) {
		if int(seq[start]) < len(condBr) && condBr[seq[start]] {
			branches--
		}
		start++
	}
	return seq[start:]
}

// Windows returns (total, distinct) recorded windows for procedure p.
func (pf *PathProfile) Windows(p ir.ProcID) (int64, int) {
	return pf.procs[p].windows, pf.procs[p].distinct
}

// BlocksByFreq returns p's executed blocks in decreasing frequency
// order, the seed order for path-based trace selection.
func (pf *PathProfile) BlocksByFreq(p ir.ProcID) []ir.BlockID {
	idx := pf.procs[p]
	count := map[ir.BlockID]int64{}
	for b := range idx.condBr {
		if f := pf.BlockFreq(p, ir.BlockID(b)); f > 0 {
			count[ir.BlockID(b)] = f
		}
	}
	out := make([]ir.BlockID, 0, len(count))
	for b := range count {
		out = append(out, b)
	}
	sortBlocksByCount(out, count)
	return out
}
