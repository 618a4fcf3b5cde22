package profile

import (
	"testing"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// blDiamondProc builds a loop-free procedure of two stacked diamonds:
// four acyclic paths, no back edges, so Ball–Larus numbering must
// assign exactly four dense ids with no cut edges.
func blDiamondProc() *ir.Program {
	bd := ir.NewBuilder("diamond", 8)
	pb := bd.Proc("main")
	e, l, r, j, a, b, end :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	e.Add(ir.MovI(1, 1))
	e.Br(1, l.ID(), r.ID())
	l.Add(ir.MovI(2, 10))
	l.Jmp(j.ID())
	r.Add(ir.MovI(2, 20))
	r.Jmp(j.ID())
	j.Add(ir.MovI(3, 0))
	j.Br(3, a.ID(), b.ID())
	a.Add(ir.AddI(2, 2, 1))
	a.Jmp(end.ID())
	b.Add(ir.AddI(2, 2, 2))
	b.Jmp(end.ID())
	end.Ret(2)
	return bd.Finish()
}

func TestBLNumberingDiamond(t *testing.T) {
	prog := blDiamondProc()
	bl := NewBLProfiler(prog, BLConfig{})
	if got := bl.NumPaths(0); got != 4 {
		t.Fatalf("NumPaths = %d, want 4 (two stacked diamonds)", got)
	}
	bl.ForEachCutEdge(0, func(from, to ir.BlockID) {
		t.Errorf("unexpected cut edge b%d->b%d in a loop-free procedure", from, to)
	})
	p := prog.Proc(0)
	seen := map[string]bool{}
	for id := int64(0); id < 4; id++ {
		blocks, cutTo := bl.DecodePath(0, id)
		if cutTo != ir.NoBlock {
			t.Fatalf("path %d: cutTo = b%d, want ret-terminated", id, cutTo)
		}
		if len(blocks) == 0 || blocks[0] != p.Entry().ID {
			t.Fatalf("path %d: decodes to %v, want entry-rooted path", id, blocks)
		}
		for i := 1; i < len(blocks); i++ {
			ok := false
			for _, s := range p.Block(blocks[i-1]).Succs() {
				if s == blocks[i] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("path %d: b%d->b%d is not a CFG edge", id, blocks[i-1], blocks[i])
			}
		}
		if last := p.Block(blocks[len(blocks)-1]); last.Terminator().Op != ir.OpRet {
			t.Fatalf("path %d ends at b%d, not a ret block", id, last.ID)
		}
		key := string(seqKey(blocks))
		if seen[key] {
			t.Fatalf("path %d decodes to a sequence another id already produced", id)
		}
		seen[key] = true
	}
}

// blCallProg is loop-free across the whole program: main performs a
// straight-line chain of eight calls to a two-diamond helper whose
// branches depend on the argument, so the helper sees eight
// activations across four distinct acyclic paths.
func blCallProg() *ir.Program {
	bd := ir.NewBuilder("blcalls", 8)
	f := bd.Proc("f")
	e, l, r, j, a, b, end :=
		f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	e.Add(ir.AndI(2, ir.RegArg0, 1))
	e.Br(2, l.ID(), r.ID())
	l.Add(ir.MovI(3, 10))
	l.Jmp(j.ID())
	r.Add(ir.MovI(3, 20))
	r.Jmp(j.ID())
	j.Add(ir.AndI(4, ir.RegArg0, 2))
	j.Br(4, a.ID(), b.ID())
	a.Add(ir.AddI(3, 3, 1))
	a.Jmp(end.ID())
	b.Add(ir.AddI(3, 3, 2))
	b.Jmp(end.ID())
	end.Ret(3)

	pb := bd.Proc("main")
	const n = 8
	blocks := pb.NewBlocks(n + 1)
	for i := 0; i < n; i++ {
		blocks[i].Add(ir.MovI(1, int64(i)))
		blocks[i].Call(5, f.ID(), blocks[i+1].ID(), 1)
	}
	blocks[n].Ret(5)
	return bd.Finish()
}

// requireSameProfiles asserts two frozen path profiles are exactly
// equal: every sequence either trie holds has the same frequency in
// the other, and the window and distinct-window counts agree.
func requireSameProfiles(t *testing.T, ctx string, a, b *PathProfile) {
	t.Helper()
	if a.NumProcs() != b.NumProcs() {
		t.Fatalf("%s: %d vs %d procs", ctx, a.NumProcs(), b.NumProcs())
	}
	for pid := 0; pid < a.NumProcs(); pid++ {
		p := ir.ProcID(pid)
		a.Walk(p, func(seq []ir.BlockID, n int64) {
			if got := b.Freq(p, seq); got != n {
				t.Errorf("%s: proc %d seq %s: %d vs %d", ctx, pid, FmtSeq(seq), n, got)
			}
		})
		b.Walk(p, func(seq []ir.BlockID, n int64) {
			if got := a.Freq(p, seq); got != n {
				t.Errorf("%s: proc %d seq %s: %d vs %d", ctx, pid, FmtSeq(seq), got, n)
			}
		})
		wa, da := a.Windows(p)
		wb, db := b.Windows(p)
		if wa != wb || da != db {
			t.Errorf("%s: proc %d: %d windows (%d distinct) vs %d (%d)", ctx, pid, wa, da, wb, db)
		}
	}
}

// On loop-free procedures every activation is a single numbered path,
// so the Ball–Larus profile must equal the window profiler's exactly —
// per-event and batched, at default and at tight non-default bounds.
func TestBLDifferentialLoopFree(t *testing.T) {
	for _, cfg := range []struct {
		name       string
		depth, max int
	}{
		{"default", 0, 0},
		{"tight", 2, 3},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			prog := blCallProg()
			wp := NewPathProfiler(prog, PathConfig{Depth: cfg.depth, MaxBlocks: cfg.max})
			bl := NewBLProfiler(prog, BLConfig{Depth: cfg.depth, MaxBlocks: cfg.max})
			if _, err := interp.Run(prog, interp.Config{Observer: Multi{wp, bl}}); err != nil {
				t.Fatal(err)
			}
			requireSameProfiles(t, "per-event", wp.Profile(), bl.Profile())

			tpw, err := Train(prog, PathConfig{Depth: cfg.depth, MaxBlocks: cfg.max})
			if err != nil {
				t.Fatal(err)
			}
			tpb, err := TrainBL(prog, BLConfig{Depth: cfg.depth, MaxBlocks: cfg.max})
			if err != nil {
				t.Fatal(err)
			}
			if tpw.Stats.Scheme != TrainSchemeWindow || tpb.Stats.Scheme != TrainSchemeBallLarus {
				t.Fatalf("schemes %q/%q", tpw.Stats.Scheme, tpb.Stats.Scheme)
			}
			if tpb.BL == nil {
				t.Fatal("TrainBL did not surface the raw profiler")
			}
			requireSameProfiles(t, "batched", tpw.Path, tpb.Path)
		})
	}
}

// blAltLoop builds a loop whose branch direction alternates each
// iteration: head -> body -> {odd, even} -> head, 40 iterations.
// Block ids: entry 0, head 1, body 2, odd 3, even 4, exit 5.
func blAltLoop() *ir.Program {
	bd := ir.NewBuilder("blalt", 8)
	pb := bd.Proc("main")
	entry, head, body, odd, even, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Add(ir.MovI(1, 0), ir.MovI(2, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(3, 1, 40))
	head.Br(3, body.ID(), exit.ID())
	body.Add(ir.AndI(4, 1, 1))
	body.Br(4, odd.ID(), even.ID())
	odd.Add(ir.AddI(2, 2, 1), ir.AddI(1, 1, 1))
	odd.Jmp(head.ID())
	even.Add(ir.AddI(2, 2, 2), ir.AddI(1, 1, 1))
	even.Jmp(head.ID())
	exit.Ret(2)
	return bd.Finish()
}

// On loops the k-iteration extension must (a) keep block and edge
// frequencies exact against the run's edge profile, and (b) expose
// cross-back-edge branch correlation: the alternating loop's
// two-iteration windows strictly interleave odd and even paths, which
// single acyclic paths cannot see.
func TestBLLoopExtension(t *testing.T) {
	prog := blAltLoop()
	tp, err := TrainBL(prog, BLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pf, ep := tp.Path, tp.Edge
	p := prog.Proc(0)
	for _, b := range p.Blocks {
		if pn, en := pf.BlockFreq(0, b.ID), ep.BlockFreq(0, b.ID); pn != en {
			t.Errorf("block b%d: decoded paths say %d, edge profile says %d", b.ID, pn, en)
		}
		for _, s := range b.Succs() {
			if pn, en := pf.EdgeFreq(0, b.ID, s), ep.EdgeFreq(0, b.ID, s); pn != en {
				t.Errorf("edge b%d->b%d: decoded paths say %d, edge profile says %d", b.ID, s, pn, en)
			}
		}
	}

	// 40 iterations alternating even (i&1 == 0) and odd: every window
	// spanning two iterations pairs opposite parities, never the same.
	head, body, odd, even := ir.BlockID(1), ir.BlockID(2), ir.BlockID(3), ir.BlockID(4)
	if n := pf.Freq(0, []ir.BlockID{head, body, even, head, body, odd}); n != 20 {
		t.Errorf("even->odd two-iteration window ran %d times, want 20", n)
	}
	if n := pf.Freq(0, []ir.BlockID{head, body, odd, head, body, even}); n != 19 {
		t.Errorf("odd->even two-iteration window ran %d times, want 19", n)
	}
	for _, same := range [][]ir.BlockID{
		{head, body, even, head, body, even},
		{head, body, odd, head, body, odd},
	} {
		if n := pf.Freq(0, same); n != 0 {
			t.Errorf("same-parity window %s ran %d times, want 0", FmtSeq(same), n)
		}
	}
	// The cross-iteration context makes the next branch deterministic.
	if succ, _ := pf.MostLikelyPathSuccessor(0, []ir.BlockID{body, even, head, body}); succ != odd {
		t.Errorf("successor after an even iteration = b%d, want b%d (odd)", succ, odd)
	}

	// The window profiler sees the same alternation at matched depth —
	// the guidance the two schemes hand formation agrees here.
	tpw, err := Train(prog, PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range [][]ir.BlockID{
		{head, body, even, head, body, odd},
		{head, body, odd, head, body, even},
		{head, body, even, head, body, even},
	} {
		if wn, bn := tpw.Path.Freq(0, seq), pf.Freq(0, seq); wn != bn {
			t.Errorf("window %s: window profiler %d, Ball–Larus %d", FmtSeq(seq), wn, bn)
		}
	}
}

// blWideLoop wraps a chain of 20 diamonds (2^20 acyclic paths — far
// past blMaxPathsPerBlock) in a 32-iteration loop, forcing overflow
// cut edges on forward edges alongside the loop's back-edge cut.
func blWideLoop() *ir.Program {
	const diamonds, iters = 20, 32
	bd := ir.NewBuilder("blwide", 8)
	pb := bd.Proc("main")
	entry, head, pre := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	exit := pb.NewBlock()
	tops := make([]*ir.BlockBuilder, diamonds+1)
	for i := range tops {
		tops[i] = pb.NewBlock()
	}
	entry.Add(ir.MovI(4, 0), ir.MovI(3, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(5, 4, iters))
	head.Br(5, pre.ID(), exit.ID())
	pre.Add(ir.MulI(1, 4, 1103515245), ir.AddI(1, 1, 12345))
	pre.Jmp(tops[0].ID())
	for i := 0; i < diamonds; i++ {
		l, r := pb.NewBlock(), pb.NewBlock()
		tops[i].Add(ir.AndI(2, 1, 1), ir.ShrI(1, 1, 1))
		tops[i].Br(2, l.ID(), r.ID())
		l.Add(ir.AddI(3, 3, 1))
		l.Jmp(tops[i+1].ID())
		r.Add(ir.AddI(3, 3, 2))
		r.Jmp(tops[i+1].ID())
	}
	tops[diamonds].Add(ir.AddI(4, 4, 1))
	tops[diamonds].Jmp(head.ID())
	exit.Ret(3)
	return bd.Finish()
}

// Overflow cuts: a procedure whose acyclic path count explodes must
// fall back to extra cut edges, and the decoded profile must still
// conserve flow exactly.
func TestBLOverflowCuts(t *testing.T) {
	prog := blWideLoop()
	bl := NewBLProfiler(prog, BLConfig{})
	g := ir.NewCFG(prog.Proc(0))
	forwardCuts := 0
	bl.ForEachCutEdge(0, func(from, to ir.BlockID) {
		if !g.IsBackEdge(from, to) {
			forwardCuts++
		}
	})
	if forwardCuts == 0 {
		t.Fatalf("no overflow cut on 2^20 acyclic paths (NumPaths = %d)", bl.NumPaths(0))
	}
	if total := bl.NumPaths(0); total > blDenseLimit {
		t.Fatalf("NumPaths = %d still exceeds the dense limit after cuts", total)
	}

	tp, err := TrainBL(prog, BLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Proc(0)
	for _, b := range p.Blocks {
		if pn, en := tp.Path.BlockFreq(0, b.ID), tp.Edge.BlockFreq(0, b.ID); pn != en {
			t.Errorf("block b%d: decoded paths say %d, edge profile says %d", b.ID, pn, en)
		}
		for _, s := range b.Succs() {
			if pn, en := tp.Path.EdgeFreq(0, b.ID, s), tp.Edge.EdgeFreq(0, b.ID, s); pn != en {
				t.Errorf("edge b%d->b%d: decoded paths say %d, edge profile says %d", b.ID, s, pn, en)
			}
		}
	}
}
