package check_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
)

// Mutation tests: each test compiles a clean program, confirms the
// relevant analysis accepts it, applies one scripted illegal edit of
// the kind a buggy pass could produce, and asserts the analysis
// rejects it with a diagnostic naming the exact position.

// mutProg builds a loop whose hot path (head → b1 → b2 → latch) is
// prime superblock material: the side block rare joins back at latch
// (forcing tail duplication), and b2 loads from a data segment so the
// scheduler has loads to hoist above b1's exit (forcing Spec).
func mutProg() *ir.Program {
	bd := ir.NewBuilder("mut", 64)
	bd.Data(0, 7, 9)
	pb := bd.Proc("main")
	entry, head, b1, b2, rare, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, t1, t2, t3, base = 1, 2, 3, 4, 5, 6, 7
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0), ir.MovI(base, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, 300))
	head.Br(c, b1.ID(), exit.ID())
	b1.Add(ir.AddI(t1, i, 3), ir.AndI(c, i, 63), ir.CmpEQI(c, c, 63))
	b1.Br(c, rare.ID(), b2.ID())
	b2.Add(
		ir.Load(t2, base, 0), ir.Load(t3, base, 1),
		ir.Add(s, s, t2), ir.Add(s, s, t3), ir.Add(s, s, t1),
	)
	b2.Jmp(latch.ID())
	rare.Add(ir.AddI(s, s, 1000))
	rare.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

// form profiles mutProg and forms path-based superblocks, returning
// the formation result (not yet compacted) and the profilers.
func form(t *testing.T) (*core.Result, *profile.EdgeProfiler, *profile.PathProfiler) {
	t.Helper()
	prog := mutProg()
	ep := profile.NewEdgeProfiler(prog)
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: profile.Multi{ep, pp}}); err != nil {
		t.Fatalf("training run: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.PathBased
	cfg.Edge, cfg.Path = ep.Profile(), pp.Profile()
	cfg.MinExecFreq = 2
	res, err := core.Form(prog, cfg)
	if err != nil {
		t.Fatalf("Form: %v", err)
	}
	return res, ep, pp
}

// compiled forms and compacts, returning the scheduled binary.
func compiled(t *testing.T) *ir.Program {
	t.Helper()
	res, _, _ := form(t)
	if err := sched.Compact(res, sched.Options{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return res.Prog
}

// requireViolation asserts vs contains a violation whose message
// contains want, and returns the first such violation.
func requireViolation(t *testing.T, vs []check.Violation, want string) check.Violation {
	t.Helper()
	for _, v := range vs {
		if strings.Contains(v.Msg, want) {
			return v
		}
	}
	t.Fatalf("no violation mentions %q; got %v", want, check.Err("test", vs))
	return check.Violation{}
}

// --- DefBeforeUse mutations ---

// Mutation 1: an instruction reads a virtual register no pass ever
// wrote — the signature of a renaming bug.
func TestMutationUndefinedVirtualRead(t *testing.T) {
	prog := compiled(t)
	p := prog.Proc(0)
	b, i := findUse(t, p)
	b.Instrs[i].Src1 = ir.VirtBase + 99
	vs := check.DefBeforeUse(prog, check.BaselineOf(mutProg()))
	v := requireViolation(t, vs, "virtual register")
	if v.Proc != "main" || v.Block != b.ID || v.Instr != i {
		t.Fatalf("violation at %q b%d instr %d, mutated b%d instr %d", v.Proc, v.Block, v.Instr, b.ID, i)
	}
}

// Mutation 2: an instruction reads a physical register never defined
// on any entry path (and absent from the pristine baseline) — the
// signature of an allocation bug handing out a stale register.
func TestMutationUndefinedPhysicalRead(t *testing.T) {
	prog := compiled(t)
	p := prog.Proc(0)
	b, i := findUse(t, p)
	b.Instrs[i].Src1 = 50 // never written anywhere in mutProg
	vs := check.DefBeforeUse(prog, check.BaselineOf(mutProg()))
	v := requireViolation(t, vs, "not defined on all entry paths")
	if v.Block != b.ID || v.Instr != i {
		t.Fatalf("violation at b%d instr %d, mutated b%d instr %d", v.Block, v.Instr, b.ID, i)
	}
}

// findUse returns the first reachable instruction with a register
// operand in Src1 (skipping the entry constants).
func findUse(t *testing.T, p *ir.Proc) (*ir.Block, int) {
	t.Helper()
	g := ir.NewCFG(p)
	var buf []ir.Reg
	for _, b := range p.Blocks {
		if !g.Reachable(b.ID) {
			continue
		}
		for i := range b.Instrs {
			if buf = b.Instrs[i].Uses(buf[:0]); len(buf) > 0 && b.Instrs[i].Src1 == buf[0] {
				return b, i
			}
		}
	}
	t.Fatal("no instruction with a Src1 use found")
	return nil, 0
}

// --- Schedule mutations ---

// Mutation 3: shrink a consumer's cycle below its producer's
// completion — a flow-dependence violation a broken list scheduler
// could emit.
func TestMutationRAWCycleViolation(t *testing.T) {
	prog := compiled(t)
	mc := machine.Default()
	if vs := check.Schedules(prog, mc); len(vs) != 0 {
		t.Fatalf("clean schedule rejected: %v", check.Err("compact", vs))
	}
	p := prog.Proc(0)
	live := sched.LiveIn(p)
	for _, b := range p.Blocks {
		if b.Cycles == nil {
			continue
		}
		items := make([]sched.DepItem, len(b.Instrs))
		for i := range b.Instrs {
			items[i] = sched.DepItem{Ins: b.Instrs[i], IsExit: b.ExitUnits[i] != 0}
			if items[i].IsExit {
				for _, tg := range b.Instrs[i].Targets {
					if tg != ir.NoBlock {
						items[i].LiveOut.Union(live[tg])
					}
				}
			}
		}
		for _, e := range sched.Dependences(items, mc) {
			if e.Kind != sched.DepRAW || e.Lat < 1 || e.To == len(b.Instrs)-1 {
				continue
			}
			b.Cycles[e.To] = b.Cycles[e.From] // needs From+Lat
			vs := check.Schedules(prog, mc)
			v := requireViolation(t, vs, "RAW dependence violated")
			if v.Block != b.ID || v.Instr != e.To {
				t.Fatalf("violation at b%d instr %d, mutated b%d instr %d", v.Block, v.Instr, b.ID, e.To)
			}
			return
		}
	}
	t.Fatal("no RAW edge found to mutate")
}

// Mutation 4: cram a whole superblock into one cycle — more parallel
// issue than the machine has functional units.
func TestMutationIssueWidthViolation(t *testing.T) {
	prog := compiled(t)
	mc := machine.Default()
	p := prog.Proc(0)
	for _, b := range p.Blocks {
		if b.Cycles == nil || len(b.Instrs) <= mc.FuncUnits {
			continue
		}
		for i := range b.Cycles {
			b.Cycles[i] = 0
		}
		b.Span = 1
		vs := check.Schedules(prog, mc)
		v := requireViolation(t, vs, "functional units")
		if v.Block != b.ID {
			t.Fatalf("violation at b%d, mutated b%d", v.Block, b.ID)
		}
		requireViolation(t, vs, "control operations") // branches also pile up
		return
	}
	t.Fatalf("no block wider than %d instructions", mc.FuncUnits)
}

// Mutation 5: clear the Spec flag on a load the scheduler hoisted
// above an earlier unit's exit — the unprotected speculation the
// paper's safety rule exists to prevent.
func TestMutationSpecCleared(t *testing.T) {
	prog := compiled(t)
	p := prog.Proc(0)
	for _, b := range p.Blocks {
		if b.Units == nil {
			continue
		}
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.OpLoad || !b.Instrs[i].Spec {
				continue
			}
			// Only a load that actually crossed an exit must keep Spec.
			crossed := false
			for j := i + 1; j < len(b.Instrs); j++ {
				if b.ExitUnits[j] != 0 && b.ExitUnits[j] < b.Units[i] {
					crossed = true
				}
			}
			if !crossed {
				continue
			}
			b.Instrs[i].Spec = false
			vs := check.Schedules(prog, machine.Default())
			v := requireViolation(t, vs, "without Spec")
			if v.Block != b.ID || v.Instr != i {
				t.Fatalf("violation at b%d instr %d, mutated b%d instr %d", v.Block, v.Instr, b.ID, i)
			}
			return
		}
	}
	t.Fatal("no speculated load found — formation did not hoist b2's loads")
}

// --- Superblock mutations ---

// Mutation 6: corrupt one immediate of a tail-duplicated clone, so it
// no longer computes what its original does.
func TestMutationCloneDiverges(t *testing.T) {
	res, _, _ := form(t)
	if vs := check.Superblocks(res); len(vs) != 0 {
		t.Fatalf("clean formation rejected: %v", check.Err("form", vs))
	}
	p := res.Prog.Proc(0)
	for _, b := range p.Blocks {
		if b.Origin == b.ID || len(b.Instrs) == 0 {
			continue
		}
		b.Instrs = append([]ir.Instr(nil), b.Instrs...) // unalias from the original
		b.Instrs[0].Imm++
		vs := check.Superblocks(res)
		v := requireViolation(t, vs, "diverges")
		if v.Block != b.ID || v.Instr != 0 {
			t.Fatalf("violation at b%d instr %d, mutated b%d instr 0", v.Block, v.Instr, b.ID)
		}
		return
	}
	t.Fatal("no tail-duplicated clone found — rare/latch join did not duplicate")
}

// Mutation 7: retarget a branch into the middle of a superblock — a
// side entrance, the exact thing tail duplication exists to remove.
func TestMutationSideEntrance(t *testing.T) {
	res, _, _ := form(t)
	p := res.Prog.Proc(0)
	var mid, head ir.BlockID = ir.NoBlock, ir.NoBlock
	for _, sb := range res.Superblocks[p.ID] {
		if len(sb.Blocks) >= 2 {
			head, mid = sb.Blocks[0], sb.Blocks[1]
			break
		}
	}
	if mid == ir.NoBlock {
		t.Fatal("no multi-block superblock formed")
	}
	for _, b := range p.Blocks {
		if b.ID == head || len(b.Terminator().Targets) == 0 || b.Terminator().Targets[0] == mid {
			continue
		}
		term := b.Terminator()
		term.Targets = append([]ir.BlockID(nil), term.Targets...)
		term.Targets[0] = mid
		vs := check.Superblocks(res)
		v := requireViolation(t, vs, "side entrance")
		if v.Block != b.ID {
			t.Fatalf("violation at b%d, mutated b%d", v.Block, b.ID)
		}
		return
	}
	t.Fatal("no block found to retarget")
}

// --- Profile mutations ---

// Mutation 8: corrupt one edge count of a serialized edge profile —
// Kirchhoff's law breaks at both endpoints.
func TestMutationEdgeCountCorrupted(t *testing.T) {
	prog := mutProg()
	ep := profile.NewEdgeProfiler(prog)
	if _, err := interp.Run(prog, interp.Config{Observer: ep}); err != nil {
		t.Fatal(err)
	}
	if vs := check.EdgeFlow(prog, ep.Profile()); len(vs) != 0 {
		t.Fatalf("clean profile rejected: %v", check.Err("profile", vs))
	}
	text := ep.Profile().WriteText()
	re := regexp.MustCompile(`edge b(\d+)->b(\d+): (\d+)`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatal("no edge line in serialized profile")
	}
	n, _ := strconv.ParseInt(m[3], 10, 64)
	corrupted := strings.Replace(text, m[0],
		"edge b"+m[1]+"->b"+m[2]+": "+strconv.FormatInt(n+5, 10), 1)
	bad, err := profile.ParseEdgeProfile(len(prog.Procs), corrupted)
	if err != nil {
		t.Fatal(err)
	}
	vs := check.EdgeFlow(prog, bad)
	v := requireViolation(t, vs, "flow")
	if v.Proc != "main" {
		t.Fatalf("violation names proc %q, want main", v.Proc)
	}
}

// Mutation 9: inflate one recorded path count far beyond its
// prefix-edge counts — a path cannot run more often than the edges
// inside it.
func TestMutationPathCountInflated(t *testing.T) {
	prog := mutProg()
	ep := profile.NewEdgeProfiler(prog)
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: profile.Multi{ep, pp}}); err != nil {
		t.Fatal(err)
	}
	if vs := check.PathFlow(prog, pp.Profile(), ep.Profile()); len(vs) != 0 {
		t.Fatalf("clean profile rejected: %v", check.Err("profile", vs))
	}
	text := pp.WriteText()
	re := regexp.MustCompile(`path (\d+): (b\d+ b\d+ b\d+[^\n]*)`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatal("no window of three or more blocks in serialized profile")
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	corrupted := strings.Replace(text, m[0],
		"path "+strconv.FormatInt(n*1000000, 10)+": "+m[2], 1)
	bad, err := profile.ParsePathProfile(prog, corrupted)
	if err != nil {
		t.Fatal(err)
	}
	vs := check.PathFlow(prog, bad, ep.Profile())
	v := requireViolation(t, vs, "but its edge")
	if v.Proc != "main" {
		t.Fatalf("violation names proc %q, want main", v.Proc)
	}
}

// Mutation 9b: inflate a two-block window. Every longer path through
// that pair stays within its first edge, but the pair's head block now
// has extensions summing to more than the block itself ran.
func TestMutationPathExtensionsExceed(t *testing.T) {
	prog := mutProg()
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: pp}); err != nil {
		t.Fatal(err)
	}
	text := pp.WriteText()
	re := regexp.MustCompile(`path (\d+): (b\d+ b\d+)\n`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatal("no two-block window in serialized profile")
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	corrupted := strings.Replace(text, m[0],
		"path "+strconv.FormatInt(n*1000000, 10)+": "+m[2]+"\n", 1)
	bad, err := profile.ParsePathProfile(prog, corrupted)
	if err != nil {
		t.Fatal(err)
	}
	vs := check.PathFlow(prog, bad, nil)
	v := requireViolation(t, vs, "extensions sum to")
	if v.Proc != "main" {
		t.Fatalf("violation names proc %q, want main", v.Proc)
	}
}

// The stage stamp: Err renders stage, proc, block, and instruction so
// a pipeline failure names where to look.
func TestViolationRendering(t *testing.T) {
	err := check.Err("compact", []check.Violation{
		{Proc: "main", Block: 3, Instr: 7, Msg: "boom"},
	})
	want := `check[compact]: proc "main" block b3 instr 7: boom`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want substring %q", err, want)
	}
	if check.Err("compact", nil) != nil {
		t.Fatal("empty violation set must fold to nil")
	}
}

// Mutation 10: retarget a hoisted (speculated) load's destination onto
// a register that is live into the off-trace target of the exit it was
// hoisted above. That is exactly the clobber live-range renaming
// exists to prevent (§2.3 of the paper): the off-trace path would read
// the speculative value instead of the one it expects.
func TestMutationSpeculativeClobberLive(t *testing.T) {
	prog := compiled(t)
	mc := machine.Default()
	if vs := check.Schedules(prog, mc); len(vs) != 0 {
		t.Fatalf("clean schedule rejected: %v", check.Err("compact", vs))
	}
	p := prog.Proc(0)
	live := sched.LiveIn(p)
	for _, b := range p.Blocks {
		if b.Units == nil {
			continue
		}
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.OpLoad || !b.Instrs[i].Spec || b.Instrs[i].Dst.IsVirtual() {
				continue
			}
			for j := i + 1; j < len(b.Instrs); j++ {
				// Only exits the load was hoisted above count.
				if b.ExitUnits[j] == 0 || b.ExitUnits[j] >= b.Units[i] {
					continue
				}
				var reg ir.Reg
				found := false
				for _, tg := range b.Instrs[j].Targets {
					if tg == ir.NoBlock || found {
						continue
					}
					live[tg].ForEach(func(r ir.Reg) {
						if !found {
							reg, found = r, true
						}
					})
				}
				if !found {
					continue
				}
				b.Instrs[i].Dst = reg
				vs := check.Schedules(prog, mc)
				v := requireViolation(t, vs, "live into off-trace")
				if v.Block != b.ID || v.Instr != i {
					t.Fatalf("violation at b%d instr %d, mutated b%d instr %d", v.Block, v.Instr, b.ID, i)
				}
				return
			}
		}
	}
	t.Fatal("no speculated load above an exit with a live off-trace register found")
}
