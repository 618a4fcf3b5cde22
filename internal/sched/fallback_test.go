package sched_test

import (
	"reflect"
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
	"pathsched/internal/regalloc"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// pressureLoop is a hot loop whose body computes four independent
// temporaries and then sums them: renamed and scheduled, the four are
// live at once. The entry block also writes every register from r8 up
// to the last `free`, so FreePool leaves exactly `free` homes for
// virtuals.
func pressureLoop(free int) *ir.Program {
	bd := ir.NewBuilder("pressure", 64)
	pb := bd.Proc("main")
	entry, head, body, sum, rare, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, t1, t2, t3, t4 = 1, 2, 3, 4, 5, 6, 7
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0))
	for r := ir.Reg(8); r < ir.PhysRegs-ir.Reg(free); r++ {
		entry.Add(ir.MovI(r, int64(r)))
	}
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, 300))
	head.Br(c, body.ID(), exit.ID())
	body.Add(
		ir.AddI(t1, i, 3), ir.MulI(t2, i, 5), ir.XorI(t3, i, 9), ir.AndI(t4, i, 12),
		ir.AndI(c, i, 63), ir.CmpEQI(c, c, 63),
	)
	body.Br(c, rare.ID(), sum.ID())
	sum.Add(ir.Add(s, s, t1), ir.Add(s, s, t2), ir.Add(s, s, t3), ir.Add(s, s, t4))
	sum.Jmp(latch.ID())
	rare.Add(ir.AddI(s, s, 1000))
	rare.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

// formPressure path-forms a clone of prog from a training run.
func formPressure(t *testing.T, prog *ir.Program) *core.Result {
	t.Helper()
	ep := profile.NewEdgeProfiler(prog)
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: profile.Multi{ep, pp}}); err != nil {
		t.Fatalf("training run: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.PathBased
	cfg.Edge, cfg.Path = ep.Profile(), pp.Profile()
	cfg.MinExecFreq = 2
	res, err := core.Form(ir.CloneProgram(prog), cfg)
	if err != nil {
		t.Fatalf("Form: %v", err)
	}
	return res
}

// mergedBlocks returns the compacted blocks that merged more than one
// formed block: the superblocks renaming and allocation act on.
func mergedBlocks(prog *ir.Program) []*ir.Block {
	var out []*ir.Block
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if b.SBSize > 1 {
				out = append(out, b)
			}
		}
	}
	return out
}

// mentionsAny reports whether any instruction of b names a register
// of pool.
func mentionsAny(b *ir.Block, pool []ir.Reg) bool {
	in := map[ir.Reg]bool{}
	for _, r := range pool {
		in[r] = true
	}
	for _, ins := range b.Instrs {
		regs := append([]ir.Reg{ins.Dst}, ins.Uses(nil)...)
		for _, r := range regs {
			if in[r] {
				return true
			}
		}
	}
	return false
}

// TestRegisterPressureFallback drives compaction into its no-renaming
// retry: with two free registers, the renamed superblock cannot be
// allocated, so both the fast and the reference path must reschedule
// it without renaming. The kept block then names no pool register,
// equals what DisableRenaming emits, and passes the verifier, the
// schedule checker and the translation validator. A control program
// with a roomy pool shows the same superblock keeps its renaming, so
// the equality is the fallback at work and not renaming doing nothing.
func TestRegisterPressureFallback(t *testing.T) {
	compact := func(res *core.Result, opts sched.Options) *ir.Program {
		t.Helper()
		if err := sched.Compact(res, opts); err != nil {
			t.Fatalf("Compact(%+v): %v", opts, err)
		}
		return res.Prog
	}

	roomy := pressureLoop(ir.PhysRegs - 8)
	res := formPressure(t, roomy)
	pool := regalloc.FreePool(res.Prog.Procs[0])
	sbs := mergedBlocks(compact(res, sched.Options{}))
	if len(sbs) == 0 {
		t.Fatal("control program formed no multi-block superblock")
	}
	for _, b := range sbs {
		if !mentionsAny(b, pool) {
			t.Fatalf("control: b%d kept no allocated virtual; renaming never took effect", b.ID)
		}
	}

	pristine := pressureLoop(2)
	if pool := regalloc.FreePool(pristine.Procs[0]); len(pool) != 2 {
		t.Fatalf("free pool %v, want two registers", pool)
	}
	plain := mergedBlocks(compact(formPressure(t, pristine), sched.Options{DisableRenaming: true}))
	for _, reference := range []bool{false, true} {
		res := formPressure(t, pristine)
		pool := regalloc.FreePool(res.Prog.Procs[0])
		bin := compact(res, sched.Options{Reference: reference})
		got := mergedBlocks(bin)
		if len(got) == 0 || len(got) != len(plain) {
			t.Fatalf("reference=%v: %d merged blocks, DisableRenaming has %d", reference, len(got), len(plain))
		}
		for k, b := range got {
			if mentionsAny(b, pool) {
				t.Fatalf("reference=%v: b%d names a pool register; allocation did not fail", reference, b.ID)
			}
			want := plain[k]
			if !reflect.DeepEqual(b.Instrs, want.Instrs) || !reflect.DeepEqual(b.Cycles, want.Cycles) ||
				b.Span != want.Span || !reflect.DeepEqual(b.ExitUnits, want.ExitUnits) {
				t.Fatalf("reference=%v: b%d differs from the DisableRenaming block\ngot  %v\nwant %v",
					reference, b.ID, b.Instrs, want.Instrs)
			}
		}
		if err := ir.Verify(bin); err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		if err := check.Err("compact", check.Schedules(bin, machine.Default())); err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		rep, vs := check.Equiv(pristine, bin, validate.Options{})
		if err := check.Err("validate", vs); err != nil || rep.Stats.Failed != 0 {
			t.Fatalf("reference=%v: %v (%v)", reference, err, rep.Stats)
		}
	}
}
