// Package regalloc maps the virtual registers that renaming introduces
// back onto the 128-register architected file, mirroring the paper's
// preschedule (infinite registers) → allocate → postschedule flow
// (§2.3). Virtual registers are single-assignment and never live
// across block boundaries, so a linear scan over the scheduled linear
// order suffices.
package regalloc

import (
	"fmt"
	"math/bits"

	"pathsched/internal/ir"
)

// FreePool returns the physical registers that appear nowhere in the
// procedure's architectural (pre-renaming) code: those are safe homes
// for block-local virtuals. The pool is shared by all blocks of the
// procedure — virtuals never outlive their block, so reuse across
// blocks is free.
func FreePool(p *ir.Proc) []ir.Reg {
	used := make([]bool, ir.PhysRegs)
	mark := func(r ir.Reg) {
		if r >= 0 && r < ir.VirtBase {
			used[r] = true
		}
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			mark(ins.Dst)
			mark(ins.Src1)
			mark(ins.Src2)
			for _, a := range ins.Args {
				mark(a)
			}
		}
	}
	var pool []ir.Reg
	for r := ir.Reg(0); r < ir.VirtBase; r++ {
		if !used[r] {
			pool = append(pool, r)
		}
	}
	return pool
}

// AssignVirtuals rewrites every virtual register in b onto registers
// from pool using linear-scan allocation over the block's instruction
// order. It fails when live virtual pressure exceeds the pool — the
// caller then falls back to compaction without renaming. The pool must
// hold distinct physical registers, as FreePool returns.
//
// The scan is linear in the block's length plus the span of virtual
// numbers it mentions: the free registers are a bitset whose lowest set
// bit is the deterministic choice (the smallest-numbered free
// register), per-virtual state lives in slices indexed by
// virtual − lowest virtual in the block, and each interval sits on a
// release list bucketed by its end, so expiry touches only the
// intervals that end.
func AssignVirtuals(b *ir.Block, pool []ir.Reg) error {
	// The virtual window [lo, hi] covers every operand field.
	lo, hi := ir.Reg(-1), ir.Reg(-1)
	see := func(r ir.Reg) {
		if r.IsVirtual() {
			if lo < 0 || r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
	}
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		see(ins.Dst)
		see(ins.Src1)
		see(ins.Src2)
		for _, a := range ins.Args {
			see(a)
		}
	}
	if lo < 0 {
		return nil // nothing to allocate, nothing left unresolved
	}

	// One backing array, carved into the per-virtual state and the
	// per-position release buckets. -1 means "none" in all four.
	w, n := int(hi-lo)+1, len(b.Instrs)
	state := make([]int32, 3*w+n)
	for i := range state {
		state[i] = -1
	}
	lastUse := state[:w]     // last position reading each virtual
	assign := state[w : 2*w] // physical register given to each virtual
	next := state[2*w : 3*w] // next virtual on the same release list
	release := state[3*w:]   // first virtual whose interval ends here

	// Interval ends: last position reading each virtual. Uses appends
	// into a stack buffer; only a call with more arguments spills.
	var ubuf [4]ir.Reg
	for i := range b.Instrs {
		for _, u := range b.Instrs[i].Uses(ubuf[:0]) {
			if u.IsVirtual() {
				lastUse[u-lo] = int32(i)
			}
		}
	}

	var free [ir.PhysRegs / 64]uint64
	for _, r := range pool {
		free[r>>6] |= 1 << uint(r&63)
	}

	rewrite := func(r *ir.Reg) {
		if r.IsVirtual() {
			if phys := assign[*r-lo]; phys >= 0 {
				*r = ir.Reg(phys)
			}
		}
	}

	for i := range b.Instrs {
		// Expire the intervals that ended at the previous position.
		if i > 0 {
			for vi := release[i-1]; vi >= 0; vi = next[vi] {
				phys := assign[vi]
				free[phys>>6] |= 1 << uint(phys&63)
			}
		}
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
			vi := v - lo
			if assign[vi] >= 0 {
				return fmt.Errorf("regalloc: virtual %v defined twice", v)
			}
			phys := lowestFree(&free)
			if phys < 0 {
				return fmt.Errorf("regalloc: out of registers at instruction %d (pool %d)", i, len(pool))
			}
			free[phys>>6] &^= 1 << uint(phys&63)
			assign[vi] = int32(phys)
			end := lastUse[vi]
			if end < int32(i) {
				end = int32(i) // dead def: release at the next position
			}
			next[vi] = release[end]
			release[end] = int32(vi)
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

// lowestFree returns the smallest register in the free set, or -1 when
// the set is empty.
func lowestFree(free *[ir.PhysRegs / 64]uint64) ir.Reg {
	for k, word := range free {
		if word != 0 {
			return ir.Reg(k*64 + bits.TrailingZeros64(word))
		}
	}
	return -1
}
