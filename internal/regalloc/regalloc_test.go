package regalloc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pathsched/internal/ir"
)

// mkBlock builds a block from instructions for allocation tests.
func mkBlock(instrs ...ir.Instr) *ir.Block {
	return &ir.Block{Instrs: instrs}
}

func v(n int32) ir.Reg { return ir.VirtBase + ir.Reg(n) }

func TestFreePoolExcludesUsedRegisters(t *testing.T) {
	bd := ir.NewBuilder("p", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(ir.Add(3, 1, 2), ir.Store(4, 0, 3))
	b.Ret(0)
	prog := bd.Finish()
	pool := FreePool(prog.Proc(0))
	inPool := map[ir.Reg]bool{}
	for _, r := range pool {
		inPool[r] = true
	}
	for _, used := range []ir.Reg{0, 1, 2, 3, 4} {
		if inPool[used] {
			t.Errorf("r%d is used but appears in the free pool", used)
		}
	}
	if len(pool) != ir.PhysRegs-5 {
		t.Fatalf("pool size = %d, want %d", len(pool), ir.PhysRegs-5)
	}
}

func TestAssignSimpleChain(t *testing.T) {
	b := mkBlock(
		ir.MovI(v(0), 10),
		ir.AddI(v(1), v(0), 5),
		ir.Mov(2, v(1)),
		ir.Ret(2),
	)
	if err := AssignVirtuals(b, []ir.Reg{50, 51}); err != nil {
		t.Fatal(err)
	}
	if b.Instrs[0].Dst != 50 {
		t.Fatalf("first virtual got %v, want r50", b.Instrs[0].Dst)
	}
	if b.Instrs[1].Src1 != 50 {
		t.Fatalf("use not rewritten: %v", b.Instrs[1])
	}
	// v0 dies at instr 1, so v1 may reuse r50... but expiry happens at
	// the *next* position; either r50 or r51 is acceptable as long as
	// uses match defs.
	if b.Instrs[2].Src1 != b.Instrs[1].Dst {
		t.Fatalf("chained use mismatch: %v vs %v", b.Instrs[2], b.Instrs[1])
	}
}

func TestAssignReusesExpiredRegisters(t *testing.T) {
	// Two non-overlapping virtual live ranges must fit in one register.
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.Mov(2, v(0)), // v0 dies here
		ir.MovI(v(1), 2),
		ir.Mov(3, v(1)),
		ir.Ret(3),
	)
	if err := AssignVirtuals(b, []ir.Reg{60}); err != nil {
		t.Fatalf("single register should suffice: %v", err)
	}
	if b.Instrs[0].Dst != 60 || b.Instrs[2].Dst != 60 {
		t.Fatal("expired register not reused")
	}
}

func TestAssignFailsUnderPressure(t *testing.T) {
	// Three simultaneously live virtuals, pool of two.
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.MovI(v(1), 2),
		ir.MovI(v(2), 3),
		ir.Add(4, v(0), v(1)),
		ir.Add(4, 4, v(2)),
		ir.Ret(4),
	)
	if err := AssignVirtuals(b, []ir.Reg{60, 61}); err == nil {
		t.Fatal("allocation must fail with pool 2 and pressure 3")
	}
}

func TestAssignRejectsDoubleDef(t *testing.T) {
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.MovI(v(0), 2),
		ir.Ret(0),
	)
	if err := AssignVirtuals(b, []ir.Reg{60, 61}); err == nil {
		t.Fatal("virtuals are single-assignment; double def must error")
	}
}

func TestAssignDeadDefReleasedImmediately(t *testing.T) {
	// A dead virtual def (never used) must not hold a register.
	b := mkBlock(
		ir.MovI(v(0), 1), // dead
		ir.MovI(v(1), 2),
		ir.Mov(2, v(1)),
		ir.Ret(2),
	)
	if err := AssignVirtuals(b, []ir.Reg{60, 61}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignHandlesCallArgs(t *testing.T) {
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.MovI(v(1), 2),
		ir.Call(3, 0, ir.NoBlock, v(0), v(1)),
		ir.Ret(3),
	)
	if err := AssignVirtuals(b, []ir.Reg{60, 61}); err != nil {
		t.Fatal(err)
	}
	for _, a := range b.Instrs[2].Args {
		if a.IsVirtual() {
			t.Fatalf("call arg not rewritten: %v", b.Instrs[2])
		}
	}
}

// Property: for random straight-line blocks with bounded pressure,
// allocation succeeds, leaves no virtuals, and preserves the dataflow
// (each use reads the physical register its def was mapped to).
func TestAssignPropertyDataflowPreserved(t *testing.T) {
	check := func(seed uint8, nInstr uint8) bool {
		n := int(nInstr%40) + 5
		rngState := uint64(seed) + 1
		rnd := func(m int) int {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			return int((rngState >> 33) % uint64(m))
		}
		var instrs []ir.Instr
		var liveVirts []ir.Reg
		next := int32(0)
		defUse := map[ir.Reg][]int{} // virtual -> instr indices using it
		defAt := map[ir.Reg]int{}
		for i := 0; i < n; i++ {
			if len(liveVirts) > 0 && rnd(3) == 0 {
				// Use one or two live virtuals.
				a := liveVirts[rnd(len(liveVirts))]
				bv := liveVirts[rnd(len(liveVirts))]
				nv := v(next)
				next++
				instrs = append(instrs, ir.Add(nv, a, bv))
				defUse[a] = append(defUse[a], len(instrs)-1)
				defUse[bv] = append(defUse[bv], len(instrs)-1)
				defAt[nv] = len(instrs) - 1
				liveVirts = append(liveVirts, nv)
			} else {
				nv := v(next)
				next++
				instrs = append(instrs, ir.MovI(nv, int64(i)))
				defAt[nv] = len(instrs) - 1
				liveVirts = append(liveVirts, nv)
			}
			// Randomly retire some virtuals so pressure stays bounded.
			if len(liveVirts) > 6 {
				liveVirts = liveVirts[len(liveVirts)-6:]
			}
		}
		instrs = append(instrs, ir.Ret(0))
		b := mkBlock(instrs...)

		// Remember the def-use structure by instruction index.
		pool := make([]ir.Reg, 32)
		for i := range pool {
			pool[i] = ir.Reg(64 + i)
		}
		if err := AssignVirtuals(b, pool); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// No virtuals remain.
		var buf []ir.Reg
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Dst.IsVirtual() {
				return false
			}
			buf = ins.Uses(buf[:0])
			for _, u := range buf {
				if u.IsVirtual() {
					return false
				}
			}
		}
		// Dataflow: each recorded use must read exactly the register
		// its def now writes (no intervening redefinition, since every
		// def wrote a distinct virtual and linear scan must not alias
		// overlapping ranges).
		for virt, uses := range defUse {
			d := defAt[virt]
			phys := b.Instrs[d].Dst
			for _, u := range uses {
				found := false
				buf = b.Instrs[u].Uses(buf[:0])
				for _, r := range buf {
					if r == phys {
						found = true
					}
				}
				if !found {
					t.Logf("seed %d: use at %d lost its def's register", seed, u)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// assignVirtualsOracle is the original map-and-sort linear scan, kept
// verbatim as the differential oracle for AssignVirtuals: interval ends
// and assignments in maps, a rescan of every live interval per
// instruction, and a sort of the free list per def.
func assignVirtualsOracle(b *ir.Block, pool []ir.Reg) error {
	// Interval ends: last position reading each virtual.
	lastUse := map[ir.Reg]int{}
	var buf []ir.Reg
	for i := range b.Instrs {
		buf = b.Instrs[i].Uses(buf[:0])
		for _, u := range buf {
			if u.IsVirtual() {
				lastUse[u] = i
			}
		}
	}

	free := append([]ir.Reg(nil), pool...)
	assign := map[ir.Reg]ir.Reg{}
	type active struct {
		virt ir.Reg
		end  int
	}
	var live []active

	expire := func(pos int) {
		kept := live[:0]
		for _, a := range live {
			if a.end < pos {
				free = append(free, assign[a.virt])
			} else {
				kept = append(kept, a)
			}
		}
		live = kept
	}

	rewrite := func(r *ir.Reg) {
		if r.IsVirtual() {
			if phys, ok := assign[*r]; ok {
				*r = phys
			}
		}
	}

	for i := range b.Instrs {
		expire(i)
		ins := &b.Instrs[i]
		// Uses first (they read values defined earlier).
		rewrite(&ins.Src1)
		rewrite(&ins.Src2)
		for ai := range ins.Args {
			rewrite(&ins.Args[ai])
		}
		// Then the def.
		if ins.HasDst() && ins.Dst.IsVirtual() {
			v := ins.Dst
			if _, dup := assign[v]; dup {
				return fmt.Errorf("regalloc: virtual %v defined twice", v)
			}
			if len(free) == 0 {
				return fmt.Errorf("regalloc: out of registers at instruction %d (pool %d)", i, len(pool))
			}
			// Deterministic choice: smallest-numbered free register.
			sort.Slice(free, func(a, b int) bool { return free[a] < free[b] })
			phys := free[0]
			free = free[1:]
			assign[v] = phys
			end, used := lastUse[v]
			if !used || end < i {
				end = i // dead def: release immediately on next expire
			}
			live = append(live, active{virt: v, end: end})
			ins.Dst = phys
		}
	}

	// Nothing virtual may survive.
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		if ins.Dst.IsVirtual() || ins.Src1.IsVirtual() || ins.Src2.IsVirtual() {
			return fmt.Errorf("regalloc: unresolved virtual in %v", *ins)
		}
		for _, a := range ins.Args {
			if a.IsVirtual() {
				return fmt.Errorf("regalloc: unresolved virtual arg in %v", *ins)
			}
		}
	}
	return nil
}

// randAllocBlock builds a random renamed-looking block for the
// differential test: virtuals numbered from a random base with gaps,
// physical operands mixed in, loads, stores, emits and calls with
// argument lists, dead defs, and — at low rates — a use before any
// def and a second def of one virtual. The pool is a shuffled random
// subset of the physical file, sometimes too small for the pressure.
func randAllocBlock(rng *rand.Rand) (*ir.Block, []ir.Reg) {
	base := ir.VirtBase
	if rng.Intn(2) == 0 {
		base += ir.Reg(rng.Intn(5000))
	}
	nextVirt := base
	var defined []ir.Reg
	src := func() ir.Reg {
		switch k := rng.Intn(40); {
		case k == 0:
			return nextVirt + ir.Reg(rng.Intn(3)) // not (yet) defined
		case k < 10 || len(defined) == 0:
			return ir.Reg(rng.Intn(ir.PhysRegs))
		case k < 25:
			// Recent defs keep most intervals short.
			return defined[len(defined)-1-rng.Intn(min(len(defined), 4))]
		default:
			return defined[rng.Intn(len(defined))]
		}
	}
	dst := func() ir.Reg {
		switch k := rng.Intn(60); {
		case k == 0 && len(defined) > 0:
			return defined[rng.Intn(len(defined))] // double def
		case k < 8:
			return ir.Reg(rng.Intn(ir.PhysRegs))
		default:
			nextVirt += 1 + ir.Reg(rng.Intn(2)) // gaps in the numbering
			defined = append(defined, nextVirt)
			return nextVirt
		}
	}
	n := 1 + rng.Intn(60)
	instrs := make([]ir.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		var ins ir.Instr
		switch rng.Intn(8) {
		case 0:
			ins = ir.MovI(0, int64(i))
		case 1:
			ins = ir.Load(0, src(), int64(rng.Intn(8)))
		case 2:
			ins = ir.Store(src(), int64(rng.Intn(8)), src())
		case 3:
			ins = ir.Emit(src())
		case 4:
			args := make([]ir.Reg, rng.Intn(5))
			for k := range args {
				args[k] = src()
			}
			ins = ir.Call(0, 0, ir.NoBlock, args...)
		case 5:
			ins = ir.AddI(0, src(), 1)
		default:
			ins = ir.Add(0, src(), src())
		}
		if ins.HasDst() {
			ins.Dst = dst()
		}
		instrs = append(instrs, ins)
	}
	instrs = append(instrs, ir.Ret(src()))

	perm := rng.Perm(ir.PhysRegs)
	pool := make([]ir.Reg, rng.Intn(24))
	for k := range pool {
		pool[k] = ir.Reg(perm[k])
	}
	return &ir.Block{Instrs: instrs}, pool
}

// cloneInstrs deep-copies instructions, argument lists included, so
// two allocators can rewrite the same block independently.
func cloneInstrs(in []ir.Instr) []ir.Instr {
	out := append([]ir.Instr(nil), in...)
	for i := range out {
		if out[i].Args != nil {
			out[i].Args = append([]ir.Reg(nil), out[i].Args...)
		}
	}
	return out
}

// TestAssignVirtualsMatchesOracle is the differential test: on seeded
// random blocks the linear-time allocator must leave exactly the
// instructions the map-and-sort oracle leaves, and fail with exactly
// its error, including partial rewrites when allocation stops early.
// Every outcome class must occur, so the generator keeps reaching the
// pressure, double-def and unresolved-virtual paths.
func TestAssignVirtualsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	outcomes := map[string]int{}
	for trial := 0; trial < 5000; trial++ {
		blk, pool := randAllocBlock(rng)
		orig := cloneInstrs(blk.Instrs)
		want := &ir.Block{Instrs: cloneInstrs(orig)}
		got := &ir.Block{Instrs: cloneInstrs(orig)}
		wantErr := assignVirtualsOracle(want, append([]ir.Reg(nil), pool...))
		gotErr := AssignVirtuals(got, pool)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, oracle %v\npool %v\nblock %v", trial, gotErr, wantErr, pool, orig)
		}
		if !reflect.DeepEqual(got.Instrs, want.Instrs) {
			t.Fatalf("trial %d: instructions differ from oracle\npool %v\nblock  %v\ngot    %v\noracle %v",
				trial, pool, orig, got.Instrs, want.Instrs)
		}
		switch msg := fmt.Sprint(wantErr); {
		case wantErr == nil:
			outcomes["ok"]++
		case strings.Contains(msg, "out of registers"):
			outcomes["pressure"]++
		case strings.Contains(msg, "defined twice"):
			outcomes["double def"]++
		default:
			outcomes["unresolved"]++
		}
	}
	for _, class := range []string{"ok", "pressure", "double def", "unresolved"} {
		if outcomes[class] == 0 {
			t.Errorf("no trial reached outcome %q: %v", class, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// chainBlock is an n-instruction renamed block with bounded pressure:
// each virtual is read by the next two instructions and then dies.
func chainBlock(n int) *ir.Block {
	instrs := []ir.Instr{ir.MovI(v(0), 1), ir.MovI(v(1), 2)}
	for i := int32(2); len(instrs) < n-1; i++ {
		instrs = append(instrs, ir.Add(v(i), v(i-1), v(i-2)))
	}
	instrs = append(instrs, ir.Store(0, 0, v(int32(len(instrs)-1))), ir.Ret(0))
	return &ir.Block{Instrs: instrs}
}

// TestAssignVirtualsAllocsConstant pins the allocator's linear,
// map-free shape with a deterministic work counter instead of a timer:
// one AssignVirtuals call makes the same small number of allocations
// for a 40- and a 400-instruction block.
func TestAssignVirtualsAllocsConstant(t *testing.T) {
	pool := []ir.Reg{8, 9, 10, 11}
	allocs := func(n int) float64 {
		src := chainBlock(n)
		b := &ir.Block{Instrs: make([]ir.Instr, len(src.Instrs))}
		return testing.AllocsPerRun(50, func() {
			copy(b.Instrs, src.Instrs)
			if err := AssignVirtuals(b, pool); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(40), allocs(400)
	t.Logf("allocations per call: %v at 40 instructions, %v at 400", small, large)
	if small != large || large > 2 {
		t.Fatalf("allocations per call: %v at 40 instructions, %v at 400; want one small constant", small, large)
	}
}
