package sched

import (
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
	"pathsched/internal/profile"
	"pathsched/internal/regalloc"
)

// TestReachableMatchesCFG pins the target walk removeDeadBlocks and
// CompactBasicBlocks use to ir.CFG's reachability, on random CFGs
// (unreachable blocks, switches, self loops) and on a compacted
// program whose merged blocks carry mid-block exits.
func TestReachableMatchesCFG(t *testing.T) {
	var progs []*ir.Program
	for seed := int64(0); seed < 200; seed++ {
		progs = append(progs, irtest.RandCFGProg(seed, 2+int(seed%23)))
	}
	progs = append(progs, compile(t, hotTrace(50), core.PathBased, Options{}, nil).Prog)
	for k, prog := range progs {
		for _, p := range prog.Procs {
			g := ir.NewCFG(p)
			live := reachable(p)
			for _, b := range p.Blocks {
				if live[b.ID] != g.Reachable(b.ID) {
					t.Fatalf("program %d %s b%d: reachable %v, CFG says %v", k, p.Name, b.ID, live[b.ID], g.Reachable(b.ID))
				}
			}
		}
	}
}

// renamedHeads path-forms gcc and returns every superblock as
// compaction hands it to the register allocator (merged, renamed,
// value-numbered, DCE'd and scheduled), with its procedure's pool.
func renamedHeads(b *testing.B) ([]*ir.Block, [][]ir.Reg) {
	bm := bench.ByName("gcc")
	prog := bm.Build(bm.Train)
	ep := profile.NewEdgeProfiler(prog)
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: profile.Multi{ep, pp}}); err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.PathBased
	cfg.Edge, cfg.Path = ep.Profile(), pp.Profile()
	res, err := core.Form(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{}.withDefaults()
	s := newScratch()
	var blocks []*ir.Block
	var pools [][]ir.Reg
	for _, p := range res.Prog.Procs {
		live := LiveIn(p)
		pool := regalloc.FreePool(p)
		for _, sb := range res.Superblocks[p.ID] {
			nodes, err := mergeSuperblock(p, sb, live, s)
			if err != nil {
				b.Fatal(err)
			}
			final, cycles, span, _, err := scheduleNodes(p, nodes, true, opts, s, false, nil)
			if err != nil {
				b.Fatal(err)
			}
			blk := &ir.Block{}
			install(p, blk, sb, final, cycles, span)
			for i := range blk.Instrs {
				if a := blk.Instrs[i].Args; a != nil {
					blk.Instrs[i].Args = append([]ir.Reg(nil), a...)
				}
			}
			blocks = append(blocks, blk)
			pools = append(pools, pool)
		}
	}
	return blocks, pools
}

// BenchmarkAssignVirtuals measures register allocation alone over
// gcc's renamed superblocks; one op allocates every superblock once.
func BenchmarkAssignVirtuals(b *testing.B) {
	heads, pools := renamedHeads(b)
	work := make([]*ir.Block, len(heads))
	for k, h := range heads {
		work[k] = &ir.Block{Instrs: make([]ir.Instr, len(h.Instrs))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k, h := range heads {
			for j := range h.Instrs {
				args := work[k].Instrs[j].Args
				work[k].Instrs[j] = h.Instrs[j]
				if h.Instrs[j].Args != nil {
					work[k].Instrs[j].Args = append(args[:0], h.Instrs[j].Args...)
				}
			}
		}
		b.StartTimer()
		for k, w := range work {
			// A pressure failure is a legitimate outcome: compaction
			// then reschedules without renaming.
			_ = regalloc.AssignVirtuals(w, pools[k])
		}
	}
}
