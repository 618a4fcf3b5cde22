package profile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// chainProg builds a procedure of n blocks where block i ends in a
// conditional branch to blocks (i+1) mod n and (i+2) mod n when
// branchy[i], or a jump to (i+1) mod n otherwise. It is only used to
// give profilers realistic condBr maps and legal walks.
func chainProg(branchy []bool) *ir.Program {
	n := len(branchy)
	bd := ir.NewBuilder("chain", 8)
	pb := bd.Proc("main")
	bbs := pb.NewBlocks(n)
	for i, bb := range bbs {
		bb.Add(ir.MovI(1, int64(i)))
		if branchy[i] {
			bb.Br(1, bbs[(i+1)%n].ID(), bbs[(i+2)%n].ID())
		} else {
			bb.Jmp(bbs[(i+1)%n].ID())
		}
	}
	return bd.Program() // skip Finish: no ret; we never execute it
}

// walkFeeder drives observers with a synthetic activation walk.
func feedWalk(obs interp.Observer, walk []ir.BlockID) {
	obs.EnterProc(0, walk[0])
	for i, b := range walk {
		if i > 0 {
			obs.Edge(0, walk[i-1], b)
		}
		obs.Block(0, b)
	}
	obs.ExitProc(0)
}

// legalWalk produces a length-m walk over prog's proc 0 following
// random successors.
func legalWalk(prog *ir.Program, rng *rand.Rand, m int) []ir.BlockID {
	p := prog.Proc(0)
	cur := p.Entry().ID
	walk := []ir.BlockID{cur}
	for len(walk) < m {
		succs := p.Block(cur).Succs()
		if len(succs) == 0 {
			break
		}
		cur = succs[rng.Intn(len(succs))]
		walk = append(walk, cur)
	}
	return walk
}

func TestPathFreqSimpleRepeat(t *testing.T) {
	prog := chainProg([]bool{true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	// Walk b0 b1 b2 b0 b1 b2 b0.
	feedWalk(pp, []ir.BlockID{0, 1, 2, 0, 1, 2, 0})
	pf := pp.Profile()
	cases := []struct {
		seq  []ir.BlockID
		want int64
	}{
		{[]ir.BlockID{0}, 3},
		{[]ir.BlockID{1}, 2},
		{[]ir.BlockID{0, 1}, 2},
		{[]ir.BlockID{1, 2}, 2},
		{[]ir.BlockID{2, 0}, 2},
		{[]ir.BlockID{0, 1, 2}, 2},
		{[]ir.BlockID{0, 1, 2, 0}, 2},
		{[]ir.BlockID{0, 1, 2, 0, 1, 2, 0}, 1},
		{[]ir.BlockID{2, 1}, 0},
	}
	for _, c := range cases {
		if got := pf.Freq(0, c.seq); got != c.want {
			t.Errorf("Freq(%s) = %d, want %d", FmtSeq(c.seq), got, c.want)
		}
	}
}

func TestGeneralPathsCrossBackEdges(t *testing.T) {
	// The defining property of general (vs forward) paths: a window may
	// span a loop back edge, so multi-iteration sequences have exact
	// counts.
	prog := chainProg([]bool{true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	feedWalk(pp, []ir.BlockID{0, 1, 0, 1, 0, 1})
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1, 0, 1}); got != 2 {
		t.Fatalf("two-iteration path freq = %d, want 2", got)
	}
	if got := pf.Freq(0, []ir.BlockID{1, 0, 1, 0}); got != 1 {
		t.Fatalf("offset two-iteration path freq = %d, want 1", got)
	}
}

func TestDepthLimitTrimsWindows(t *testing.T) {
	prog := chainProg([]bool{true, true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 2})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3, 0, 1, 2, 3})
	pf := pp.Profile()
	// Windows never contain 3 branch blocks, so any 3-block sequence
	// (all blocks branchy here) beyond depth has count 0.
	if got := pf.Freq(0, []ir.BlockID{0, 1, 2}); got != 0 {
		t.Fatalf("beyond-depth freq = %d, want 0", got)
	}
	if got := pf.Freq(0, []ir.BlockID{1, 2}); got != 2 {
		t.Fatalf("within-depth freq = %d, want 2", got)
	}
}

func TestMaxBlocksCap(t *testing.T) {
	prog := chainProg([]bool{false, false, false, false, false, false})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15, MaxBlocks: 3})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3, 4, 5})
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{2, 3, 4}); got != 1 {
		t.Fatalf("3-block window freq = %d, want 1", got)
	}
	if got := pf.Freq(0, []ir.BlockID{1, 2, 3, 4}); got != 0 {
		t.Fatalf("4-block seq beyond cap = %d, want 0", got)
	}
}

func TestTrimToDepth(t *testing.T) {
	prog := chainProg([]bool{true, false, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 3})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3})
	pf := pp.Profile()
	// Sequence 0,1,2,3 has 3 branch blocks (0,2,3); with one slot
	// reserved for extension only 2 may remain: trim to [2,3]? No:
	// trimming drops from the front until ≤ Depth-1 = 2 branches:
	// dropping 0 leaves [1,2,3] with branches {2,3} = 2.
	got := pf.TrimToDepth(0, []ir.BlockID{0, 1, 2, 3})
	want := []ir.BlockID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("TrimToDepth = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TrimToDepth = %v, want %v", got, want)
		}
	}
}

func TestMostLikelyPathSuccessor(t *testing.T) {
	prog := chainProg([]bool{true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	// After [0,1], block 2 follows twice and block 0 once.
	feedWalk(pp, []ir.BlockID{0, 1, 2, 0, 1, 2, 0, 1, 0})
	pf := pp.Profile()
	succ, f := pf.MostLikelyPathSuccessor(0, []ir.BlockID{0, 1})
	if succ != 2 || f != 2 {
		t.Fatalf("MLPS([0,1]) = (b%d, %d), want (b2, 2)", succ, f)
	}
	if s, f := pf.MostLikelyPathSuccessor(0, []ir.BlockID{9}); s != ir.NoBlock || f != 0 {
		t.Fatalf("MLPS(unseen) = (b%d, %d), want (none, 0)", s, f)
	}
}

func TestFigure1PathProfilesDisambiguate(t *testing.T) {
	// Paper Figure 1: edge profiles bound f(ABC) only to [500, 1000];
	// path profiles give it exactly. Blocks: A=0, X=1, B=2, C=3, Y=4.
	bd := ir.NewBuilder("fig1", 8)
	pb := bd.Proc("main")
	bbs := pb.NewBlocks(6)
	a, x, b, c, y, exit := bbs[0], bbs[1], bbs[2], bbs[3], bbs[4], bbs[5]
	a.Add(ir.MovI(1, 0))
	a.Br(1, b.ID(), x.ID())
	x.Jmp(b.ID())
	b.Add(ir.MovI(2, 0))
	b.Br(2, c.ID(), y.ID())
	c.Jmp(exit.ID())
	y.Jmp(exit.ID())
	exit.Ret(0)
	prog := bd.Finish()

	ep := NewEdgeProfiler(prog)
	pp := NewPathProfiler(prog, PathConfig{})
	obs := Multi{ep, pp}
	// Scenario: ABC 500 times, XBY 500 times. Edge counts then show
	// A→B 500, X→B 500, B→C 500, B→Y 500: perfectly ambiguous.
	for i := 0; i < 500; i++ {
		feedWalk(obs, []ir.BlockID{0, 2, 3, 5})
		feedWalk(obs, []ir.BlockID{1, 2, 4, 5})
	}
	e := ep.Profile()
	if e.EdgeFreq(0, 0, 2) != 500 || e.EdgeFreq(0, 1, 2) != 500 ||
		e.EdgeFreq(0, 2, 3) != 500 || e.EdgeFreq(0, 2, 4) != 500 {
		t.Fatal("edge counts not as constructed")
	}
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 2, 3}); got != 500 {
		t.Fatalf("f(ABC) = %d, want exactly 500", got)
	}
	if got := pf.Freq(0, []ir.BlockID{0, 2, 4}); got != 0 {
		t.Fatalf("f(ABY) = %d, want exactly 0", got)
	}
}

func TestEdgeProfilerQueries(t *testing.T) {
	prog := chainProg([]bool{true, true, true})
	ep := NewEdgeProfiler(prog)
	feedWalk(ep, []ir.BlockID{0, 1, 2, 0, 1, 0})
	e := ep.Profile()
	if e.Entries(0) != 1 {
		t.Fatalf("entries = %d", e.Entries(0))
	}
	if e.BlockFreq(0, 0) != 3 || e.BlockFreq(0, 1) != 2 || e.BlockFreq(0, 2) != 1 {
		t.Fatal("block counts wrong")
	}
	if s, f := e.MostLikelySucc(0, 0); s != 1 || f != 2 {
		t.Fatalf("MostLikelySucc(0) = (b%d,%d)", s, f)
	}
	if p, f := e.MostLikelyPred(0, 0); p != 1 || f != 1 {
		// predecessors of 0: from 2 once, from 1 once; tie toward b1.
		t.Fatalf("MostLikelyPred(0) = (b%d,%d), want (b1,1)", p, f)
	}
	order := e.BlocksByFreq(0)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("BlocksByFreq = %v", order)
	}
}

func TestPathProfileMatchesEdgeProfileOnPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	branchy := make([]bool, 12)
	for i := range branchy {
		branchy[i] = rng.Intn(2) == 0
	}
	branchy[0] = true
	prog := chainProg(branchy)
	ep := NewEdgeProfiler(prog)
	pp := NewPathProfiler(prog, PathConfig{Depth: 5})
	obs := Multi{ep, pp}
	for a := 0; a < 20; a++ {
		walk := legalWalk(prog, rng, 50+rng.Intn(100))
		feedWalk(obs, walk)
	}
	e, pf := ep.Profile(), pp.Profile()
	for b := 0; b < 12; b++ {
		if e.BlockFreq(0, ir.BlockID(b)) != pf.BlockFreq(0, ir.BlockID(b)) {
			t.Fatalf("block b%d: edge %d vs path %d", b,
				e.BlockFreq(0, ir.BlockID(b)), pf.BlockFreq(0, ir.BlockID(b)))
		}
		for to := 0; to < 12; to++ {
			ef := e.EdgeFreq(0, ir.BlockID(b), ir.BlockID(to))
			pfq := pf.EdgeFreq(0, ir.BlockID(b), ir.BlockID(to))
			if ef != pfq {
				t.Fatalf("edge b%d->b%d: edge %d vs path %d", b, to, ef, pfq)
			}
		}
	}
}

// TestOracleEquivalence is the central property test: on random CFGs
// and random walks (including nested activations), the efficient
// profiler and the brute-force oracle agree on every queried sequence.
func TestOracleEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		branchy := make([]bool, n)
		for i := range branchy {
			branchy[i] = rng.Intn(3) > 0
		}
		prog := chainProg(branchy)
		depth := 1 + rng.Intn(5)
		maxBlocks := 2 + rng.Intn(12)
		cfgP := PathConfig{Depth: depth, MaxBlocks: maxBlocks}
		pp := NewPathProfiler(prog, cfgP)
		op := NewOraclePathProfiler(prog, cfgP)
		obs := Multi{pp, op}

		var walks [][]ir.BlockID
		for a := 0; a < 1+rng.Intn(5); a++ {
			w := legalWalk(prog, rng, 5+rng.Intn(120))
			walks = append(walks, w)
			// Occasionally nest a recursive activation mid-walk.
			if rng.Intn(2) == 0 {
				obs.EnterProc(0, w[0])
				for i, b := range w {
					if i > 0 {
						obs.Edge(0, w[i-1], b)
					}
					obs.Block(0, b)
					if i == len(w)/2 {
						inner := legalWalk(prog, rng, 5+rng.Intn(40))
						walks = append(walks, inner)
						feedWalk(obs, inner)
					}
				}
				obs.ExitProc(0)
			} else {
				feedWalk(obs, w)
			}
		}
		pf := pp.Profile()
		// succOK checks the successor queries against a brute-force
		// scan of the oracle over every one-block extension seq·s.
		succOK := func(seq []ir.BlockID) bool {
			want := map[ir.BlockID]int64{}
			best, bestN := ir.NoBlock, int64(0)
			for s := 0; s < n; s++ {
				f := op.Freq(0, append(append([]ir.BlockID{}, seq...), ir.BlockID(s)))
				if f > 0 {
					want[ir.BlockID(s)] = f
				}
				if f > bestN {
					best, bestN = ir.BlockID(s), f
				}
			}
			got := pf.SuccFreqs(0, seq)
			if len(got) != len(want) {
				t.Logf("seed %d: SuccFreqs(%s) = %v, oracle %v", seed, FmtSeq(seq), got, want)
				return false
			}
			for s, f := range want {
				if got[s] != f {
					t.Logf("seed %d: SuccFreqs(%s) = %v, oracle %v", seed, FmtSeq(seq), got, want)
					return false
				}
			}
			if s, f := pf.MostLikelyPathSuccessor(0, seq); s != best || f != bestN {
				t.Logf("seed %d: MostLikelyPathSuccessor(%s) = b%d/%d, oracle b%d/%d",
					seed, FmtSeq(seq), s, f, best, bestN)
				return false
			}
			return true
		}
		// Query every subsequence of every walk up to 6 blocks, plus
		// random garbage sequences.
		for _, w := range walks {
			for s := 0; s < len(w); s++ {
				for l := 1; l <= 6 && s+l <= len(w); l++ {
					seq := w[s : s+l]
					if pf.Freq(0, seq) != op.Freq(0, seq) {
						t.Logf("seed %d: Freq(%s) = %d, oracle %d",
							seed, FmtSeq(seq), pf.Freq(0, seq), op.Freq(0, seq))
						return false
					}
					if !succOK(seq) {
						return false
					}
				}
			}
		}
		for q := 0; q < 30; q++ {
			l := 1 + rng.Intn(4)
			seq := make([]ir.BlockID, l)
			for i := range seq {
				seq[i] = ir.BlockID(rng.Intn(n))
			}
			if pf.Freq(0, seq) != op.Freq(0, seq) {
				t.Logf("seed %d: random Freq(%s) = %d, oracle %d",
					seed, FmtSeq(seq), pf.Freq(0, seq), op.Freq(0, seq))
				return false
			}
			if !succOK(seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRecursionKeepsWindowsSeparate(t *testing.T) {
	prog := chainProg([]bool{true, true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	// Outer activation walks 0,1; inner activation walks 2,3; outer
	// resumes with 2. The sequence [1,2] must NOT be counted (the 2 ran
	// in a different activation), but outer [0,1,2] must be.
	pp.EnterProc(0, 0)
	pp.Block(0, 0)
	pp.Block(0, 1)
	pp.EnterProc(0, 2)
	pp.Block(0, 2)
	pp.Block(0, 3)
	pp.ExitProc(0)
	pp.Block(0, 2)
	pp.ExitProc(0)
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1, 2}); got != 1 {
		t.Fatalf("outer path [0,1,2] freq = %d, want 1", got)
	}
	if got := pf.Freq(0, []ir.BlockID{3, 2}); got != 0 {
		t.Fatalf("cross-activation [3,2] freq = %d, want 0", got)
	}
	if got := pf.Freq(0, []ir.BlockID{2, 3}); got != 1 {
		t.Fatalf("inner path [2,3] freq = %d, want 1", got)
	}
}

func TestInterningBoundsNodeCount(t *testing.T) {
	prog := chainProg([]bool{true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 3})
	walk := make([]ir.BlockID, 0, 20000)
	for i := 0; i < 10000; i++ {
		walk = append(walk, 0, 1)
	}
	feedWalk(pp, walk)
	nodes, edges := pp.Stats()
	if edges < 19000 {
		t.Fatalf("edges = %d, expected ~20k", edges)
	}
	if nodes > 64 {
		t.Fatalf("nodes = %d; interning failed, node count must stay "+
			"proportional to distinct paths", nodes)
	}
}

func TestProfilerOnRealProgram(t *testing.T) {
	// End-to-end: run the interpreter over a loop program and check the
	// path profile sees the loop's dominant path.
	bd := ir.NewBuilder("loop", 8)
	pb := bd.Proc("main")
	entry, head, body, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Add(ir.MovI(1, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(2, 1, 50))
	head.Br(2, body.ID(), exit.ID())
	body.Add(ir.AddI(1, 1, 1))
	body.Jmp(head.ID())
	exit.Ret(1)
	prog := bd.Finish()

	pp := NewPathProfiler(prog, PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: pp}); err != nil {
		t.Fatal(err)
	}
	pf := pp.Profile()
	hb := []ir.BlockID{head.ID(), body.ID()}
	if got := pf.Freq(0, hb); got != 50 {
		t.Fatalf("f(head,body) = %d, want 50", got)
	}
	if got := pf.Freq(0, []ir.BlockID{head.ID(), exit.ID()}); got != 1 {
		t.Fatalf("f(head,exit) = %d, want 1", got)
	}
	if w, d := pf.Windows(0); w != 103 || d == 0 {
		// entry + head + (body+head)*50 + exit = 103 block events.
		t.Fatalf("windows = (%d,%d), want 103 total", w, d)
	}
}

func TestCrossActivationWindowsSpanCalls(t *testing.T) {
	prog := chainProg([]bool{true, true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15, CrossActivation: true})
	// Outer activation runs 0,1; a recursive activation runs 2,3; the
	// outer activation resumes with 2. Under cross-activation windows
	// the sequence 0,1,2,3,2 is one window of the procedure.
	pp.EnterProc(0, 0)
	pp.Block(0, 0)
	pp.Block(0, 1)
	pp.EnterProc(0, 2)
	pp.Block(0, 2)
	pp.Block(0, 3)
	pp.ExitProc(0)
	pp.Block(0, 2)
	pp.ExitProc(0)
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1, 2, 3, 2}); got != 1 {
		t.Fatalf("interleaved window freq = %d, want 1", got)
	}
	// Per-activation semantics would record [0,1,2] as contiguous; the
	// cross-activation stream interposes the inner blocks.
	if got := pf.Freq(0, []ir.BlockID{0, 1, 2, 3}); got != 1 {
		t.Fatalf("f(0,1,2,3) = %d, want 1 under cross-activation", got)
	}
	if got := pf.Freq(0, []ir.BlockID{1, 2, 3}); got != 1 {
		t.Fatalf("f(1,2,3) = %d", got)
	}
}

func TestCrossActivationMatchesDefaultWithoutRecursion(t *testing.T) {
	// Without recursion or interleaving, the two window policies agree.
	prog := chainProg([]bool{true, true, true})
	a := NewPathProfiler(prog, PathConfig{Depth: 6})
	b := NewPathProfiler(prog, PathConfig{Depth: 6, CrossActivation: true})
	walk := []ir.BlockID{0, 1, 2, 0, 1, 2, 0, 1}
	feedWalk(Multi{a, b}, walk)
	pa, pb := a.Profile(), b.Profile()
	for s := 0; s < len(walk); s++ {
		for l := 1; l <= 5 && s+l <= len(walk); l++ {
			seq := walk[s : s+l]
			if pa.Freq(0, seq) != pb.Freq(0, seq) {
				t.Fatalf("policies diverge on %s without recursion", FmtSeq(seq))
			}
		}
	}
}
