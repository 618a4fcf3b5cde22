package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural invariants of a program:
//
//   - every procedure has at least one and at most MaxBlocks blocks,
//     and every block at least one instruction;
//   - exactly the last instruction of each block is a terminator;
//   - branch targets and call continuations name existing blocks;
//   - OpBr has exactly two targets, OpJmp and OpCall exactly one,
//     OpSwitch at least one;
//   - call callees name existing procedures and pass at most MaxArgs
//     arguments;
//   - schedule annotations, when present, cover every instruction and
//     are non-decreasing in cycle order.
//
// Transformation passes call Verify after mutating programs so that
// structural bugs surface at the pass that introduced them.
func Verify(prog *Program) error {
	if len(prog.Procs) == 0 {
		return errors.New("ir: program has no procedures")
	}
	if prog.Proc(prog.Main) == nil {
		return fmt.Errorf("ir: main procedure id %d out of range", prog.Main)
	}
	for _, p := range prog.Procs {
		if err := verifyProc(prog, p); err != nil {
			return fmt.Errorf("ir: proc %q: %w", p.Name, err)
		}
	}
	for _, seg := range prog.Data {
		if seg.Addr < 0 || seg.Addr+int64(len(seg.Values)) > prog.MemSize {
			return fmt.Errorf("ir: data segment [%d,%d) outside memory of %d words",
				seg.Addr, seg.Addr+int64(len(seg.Values)), prog.MemSize)
		}
	}
	return nil
}

func verifyProc(prog *Program, p *Proc) error {
	if len(p.Blocks) == 0 {
		return errors.New("no blocks")
	}
	if len(p.Blocks) > MaxBlocks {
		return fmt.Errorf("%d blocks exceeds max %d", len(p.Blocks), MaxBlocks)
	}
	seen := make(map[BlockID]int, len(p.Blocks))
	for i, b := range p.Blocks {
		if j, dup := seen[b.ID]; dup {
			return fmt.Errorf("duplicate block id b%d at indices %d and %d", b.ID, j, i)
		}
		seen[b.ID] = i
		if b.ID != BlockID(i) {
			return fmt.Errorf("block at index %d has id b%d", i, b.ID)
		}
		if err := verifyBlock(prog, p, b); err != nil {
			return fmt.Errorf("block b%d: %w", b.ID, err)
		}
	}
	return nil
}

func verifyBlock(prog *Program, p *Proc, b *Block) error {
	if len(b.Instrs) == 0 {
		return errors.New("empty block")
	}
	if b.Origin < 0 || int(b.Origin) >= len(p.Blocks) {
		return fmt.Errorf("origin b%d out of range", b.Origin)
	}
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		last := i == len(b.Instrs)-1
		if last {
			if !ins.Op.IsTerminator() {
				return fmt.Errorf("last instruction %s is not a terminator", ins.Op)
			}
			for _, t := range ins.Targets {
				if t == NoBlock {
					return errors.New("final terminator has a fall-through slot")
				}
			}
		} else if ins.Op.IsTerminator() {
			// Mid-block control is only legal in merged superblocks,
			// and only for ops that can fall through via a NoBlock slot.
			if err := verifyMidBlockControl(ins); err != nil {
				return fmt.Errorf("instr %d: %w", i, err)
			}
		}
		if err := verifyInstr(prog, p, ins); err != nil {
			return fmt.Errorf("instr %d (%s): %w", i, ins.Op, err)
		}
	}
	if b.ExitUnits != nil && len(b.ExitUnits) != len(b.Instrs) {
		return fmt.Errorf("ExitUnits covers %d of %d instructions", len(b.ExitUnits), len(b.Instrs))
	}
	if b.Units != nil {
		if len(b.Units) != len(b.Instrs) {
			return fmt.Errorf("Units covers %d of %d instructions", len(b.Units), len(b.Instrs))
		}
		for i, u := range b.Units {
			if u < 1 || (b.SBSize > 0 && u > b.SBSize) {
				return fmt.Errorf("Units[%d] = %d outside unit range 1..%d", i, u, b.SBSize)
			}
		}
	}
	if b.Cycles != nil {
		if len(b.Cycles) != len(b.Instrs) {
			return fmt.Errorf("schedule covers %d of %d instructions", len(b.Cycles), len(b.Instrs))
		}
		for i := 1; i < len(b.Cycles); i++ {
			if b.Cycles[i] < b.Cycles[i-1] {
				return fmt.Errorf("schedule cycles not monotone at %d", i)
			}
		}
		if b.Span <= b.Cycles[len(b.Cycles)-1] {
			return fmt.Errorf("span %d does not cover last cycle %d", b.Span, b.Cycles[len(b.Cycles)-1])
		}
	}
	return nil
}

// verifyMidBlockControl checks that a control instruction appearing
// before the end of a block (inside a merged superblock) can fall
// through to the next instruction.
func verifyMidBlockControl(ins *Instr) error {
	fallSlots := 0
	for _, t := range ins.Targets {
		if t == NoBlock {
			fallSlots++
		}
	}
	switch ins.Op {
	case OpBr:
		if fallSlots != 1 {
			return fmt.Errorf("mid-block br needs exactly one fall-through slot, has %d", fallSlots)
		}
	case OpSwitch:
		if fallSlots < 1 {
			return errors.New("mid-block switch needs a fall-through slot")
		}
	case OpCall:
		if fallSlots != 1 {
			return errors.New("mid-block call must fall through")
		}
	default:
		return fmt.Errorf("%s not allowed mid-block", ins.Op)
	}
	return nil
}

func verifyInstr(prog *Program, p *Proc, ins *Instr) error {
	checkTarget := func(t BlockID) error {
		if t == NoBlock {
			return nil // fall-through slot; position legality checked by caller
		}
		if t < 0 || int(t) >= len(p.Blocks) {
			return fmt.Errorf("target b%d out of range", t)
		}
		return nil
	}
	switch ins.Op {
	case OpBr:
		if len(ins.Targets) != 2 {
			return fmt.Errorf("br needs 2 targets, has %d", len(ins.Targets))
		}
	case OpJmp:
		if len(ins.Targets) != 1 {
			return fmt.Errorf("jmp needs 1 target, has %d", len(ins.Targets))
		}
	case OpSwitch:
		if len(ins.Targets) == 0 {
			return errors.New("switch needs at least one target")
		}
	case OpCall:
		if len(ins.Targets) != 1 {
			return fmt.Errorf("call needs 1 continuation, has %d", len(ins.Targets))
		}
		if prog.Proc(ins.Callee) == nil {
			return fmt.Errorf("callee %d out of range", ins.Callee)
		}
		if len(ins.Args) > MaxArgs {
			return fmt.Errorf("%d args exceeds max %d", len(ins.Args), MaxArgs)
		}
	case OpRet:
		if len(ins.Targets) != 0 {
			return errors.New("ret must not have targets")
		}
	default:
		if len(ins.Targets) != 0 {
			return errors.New("non-control instruction with targets")
		}
	}
	for _, t := range ins.Targets {
		if err := checkTarget(t); err != nil {
			return err
		}
	}
	for _, r := range [...]Reg{ins.Dst, ins.Src1, ins.Src2} {
		if r < 0 {
			return fmt.Errorf("negative register %d", r)
		}
	}
	for _, r := range ins.Args {
		if r < 0 {
			return fmt.Errorf("negative argument register %d", r)
		}
	}
	return nil
}
