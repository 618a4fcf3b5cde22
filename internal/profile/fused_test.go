package profile

import (
	"reflect"
	"testing"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
)

// Differential gates for the fast profiling paths: a batched-observer
// path profile and a counter-fused edge/call profile must be
// byte-identical (via the text serialization) to what the legacy
// per-event observers gather on the same run. Run under -race in CI,
// these also shake out unsynchronized state in the batch seam.

// loopCallProg builds an executable program with a counted loop, a
// conditional, and a call into a leaf, so one run exercises edges,
// multi-destination branches, and cross-procedure batch attribution.
func loopCallProg(n int64) *ir.Program {
	bd := ir.NewBuilder("loopcall", 16)
	main := bd.Proc("main")
	leaf := bd.Proc("leaf")

	lb := leaf.NewBlock()
	lb.Add(ir.AddI(0, ir.RegArg0, 2))
	lb.Ret(0)

	entry, head, body, odd, latch, exit := main.NewBlock(), main.NewBlock(),
		main.NewBlock(), main.NewBlock(), main.NewBlock(), main.NewBlock()
	const i, sum, c, t = 1, 2, 3, 4
	entry.Add(ir.MovI(i, 0), ir.MovI(sum, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, n))
	head.Br(c, body.ID(), exit.ID())
	body.Add(ir.AndI(t, i, 1))
	body.Br(t, odd.ID(), latch.ID())
	odd.Add(ir.Call(t, leaf.ID(), latch.ID(), i))
	latch.Add(ir.Add(sum, sum, i), ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(sum))
	exit.Ret(sum)
	bd.SetMain(main.ID())
	return bd.Finish()
}

// recurseProg builds a self-recursive program, so batched records of
// nested activations interleave with Begin/End flush boundaries.
func recurseProg(depth int64) *ir.Program {
	bd := ir.NewBuilder("recurse", 8)
	main := bd.Proc("main")
	rec := bd.Proc("rec")

	check, base, down := rec.NewBlock(), rec.NewBlock(), rec.NewBlock()
	const arg, c, r = ir.RegArg0, 1, 2
	check.Add(ir.CmpLTI(c, arg, 1))
	check.Br(c, base.ID(), down.ID())
	base.Add(ir.MovI(r, 0))
	base.Ret(r)
	down.Add(ir.AddI(r, arg, -1), ir.Call(r, rec.ID(), ir.NoBlock, r), ir.AddI(r, r, 1))
	down.Ret(r)

	mb := main.NewBlock()
	mb.Add(ir.MovI(1, depth), ir.Call(2, rec.ID(), ir.NoBlock, 1), ir.Emit(2))
	mb.Ret(2)
	bd.SetMain(main.ID())
	return bd.Finish()
}

// wideProg pushes scratch registers past the decoded engine's frame so
// Train must take the legacy fallback.
func wideProg() *ir.Program {
	bd := ir.NewBuilder("wideprof", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	const r = ir.Reg(300)
	b.Add(ir.MovI(r, 21), ir.AddI(r+1, r, 21), ir.Emit(r+1))
	b.Ret(r + 1)
	return bd.Finish()
}

// diffTrain pins every fast path against the legacy observers on one
// program and config: batched path profiles, counter-fused edge and
// call profiles, and the Train entry point itself.
func diffTrain(t *testing.T, name string, prog *ir.Program, cfg PathConfig) {
	t.Helper()

	lep := NewEdgeProfiler(prog)
	lpp := NewPathProfiler(prog, cfg)
	lcg := NewCallGraphProfiler()
	if _, err := interp.Run(prog, interp.Config{Observer: Multi{lep, lpp, lcg}}); err != nil {
		t.Fatalf("%s: legacy run: %v", name, err)
	}

	eng := interp.EngineFor(prog)
	if eng.Fallback() {
		t.Fatalf("%s: expected a decodable program", name)
	}
	fpp := NewPathProfiler(prog, cfg)
	_, ec, err := eng.RunCounted(interp.Config{Batch: fpp})
	if err != nil {
		t.Fatalf("%s: counted run: %v", name, err)
	}

	if got, want := fpp.WriteText(), lpp.WriteText(); got != want {
		t.Fatalf("%s: batched path profile differs from legacy\nbatched:\n%s\nlegacy:\n%s",
			name, got, want)
	}
	if batches, recs := fpp.BatchStats(); batches == 0 || recs == 0 {
		t.Fatalf("%s: batched run delivered no batches (batches=%d records=%d)", name, batches, recs)
	}
	fep := EdgeProfilerFromCounts(prog, ec)
	if got, want := fep.Profile().WriteText(), lep.Profile().WriteText(); got != want {
		t.Fatalf("%s: fused edge profile differs from legacy\nfused:\n%s\nlegacy:\n%s",
			name, got, want)
	}
	if got, want := CallCountsFromCounts(ec), lcg.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: fused call counts = %v, legacy = %v", name, got, want)
	}

	tp, err := Train(prog, cfg)
	if err != nil {
		t.Fatalf("%s: Train: %v", name, err)
	}
	if !tp.Stats.Fused || !tp.Stats.Batched {
		t.Fatalf("%s: Train stats = %+v, want fused+batched", name, tp.Stats)
	}
	if got, want := tp.Edge.WriteText(), lep.Profile().WriteText(); got != want {
		t.Fatalf("%s: Train edge profile differs from legacy", name)
	}
	requireSameProfiles(t, name+": Train vs legacy", tp.Path, lpp.Profile())
	if !reflect.DeepEqual(tp.Calls, lcg.Counts()) {
		t.Fatalf("%s: Train calls = %v, legacy = %v", name, tp.Calls, lcg.Counts())
	}
}

func TestFastTrainMatchesLegacyHandCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *ir.Program
		cfg  PathConfig
	}{
		{"loopCall", loopCallProg(40), PathConfig{}},
		{"loopCallShallow", loopCallProg(40), PathConfig{Depth: 2}},
		{"loopCallShortWindows", loopCallProg(25), PathConfig{MaxBlocks: 3}},
		{"recurse", recurseProg(12), PathConfig{}},
		{"recurseCrossAct", recurseProg(12), PathConfig{CrossActivation: true}},
	} {
		diffTrain(t, tc.name, tc.prog, tc.cfg)
	}
}

func TestFastTrainMatchesLegacyRandomPrograms(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	for seed := int64(1); seed <= n; seed++ {
		prog := irtest.RandExecProg(seed, int(seed%17)+4)
		diffTrain(t, prog.Name, prog, PathConfig{})
	}
}

func TestPointProfilesMatchesLegacy(t *testing.T) {
	progs := []*ir.Program{loopCallProg(40), recurseProg(12)}
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, irtest.RandExecProg(seed, int(seed%11)+4))
	}
	for _, prog := range progs {
		lep := NewEdgeProfiler(prog)
		lcg := NewCallGraphProfiler()
		if _, err := interp.Run(prog, interp.Config{Observer: Multi{lep, lcg}}); err != nil {
			t.Fatalf("%s: legacy run: %v", prog.Name, err)
		}
		ep, calls, err := PointProfiles(prog)
		if err != nil {
			t.Fatalf("%s: PointProfiles: %v", prog.Name, err)
		}
		if got, want := ep.WriteText(), lep.Profile().WriteText(); got != want {
			t.Fatalf("%s: fused point profile differs from legacy\nfused:\n%s\nlegacy:\n%s",
				prog.Name, got, want)
		}
		if !reflect.DeepEqual(calls, lcg.Counts()) {
			t.Fatalf("%s: fused calls = %v, legacy = %v", prog.Name, calls, lcg.Counts())
		}
	}
}

// TestTrainFallbackWide pins the wide-register path: Train must fall
// back to the legacy per-event observers and report no fast-path modes.
func TestTrainFallbackWide(t *testing.T) {
	prog := wideProg()
	if !interp.EngineFor(prog).Fallback() {
		t.Fatal("wideProg should exceed the decoded engine's register frame")
	}
	lep := NewEdgeProfiler(prog)
	lpp := NewPathProfiler(prog, PathConfig{})
	lcg := NewCallGraphProfiler()
	if _, err := interp.Run(prog, interp.Config{Observer: Multi{lep, lpp, lcg}}); err != nil {
		t.Fatal(err)
	}
	tp, err := Train(prog, PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Stats.Fused || tp.Stats.Batched {
		t.Fatalf("fallback Train stats = %+v, want legacy modes", tp.Stats)
	}
	if got, want := tp.Edge.WriteText(), lep.Profile().WriteText(); got != want {
		t.Fatalf("fallback edge profile differs from legacy")
	}
	if !reflect.DeepEqual(tp.Calls, lcg.Counts()) {
		t.Fatalf("fallback calls = %v, legacy = %v", tp.Calls, lcg.Counts())
	}
}
