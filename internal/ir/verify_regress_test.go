package ir

import (
	"strings"
	"testing"
)

// Regression: Verify used to index blocks positionally without
// checking for two blocks claiming one ID, so a pass that corrupted a
// Block.ID slid past every later by-ID lookup.
func TestVerifyDuplicateBlockID(t *testing.T) {
	prog := diamond(t)
	prog.Procs[0].Blocks[2].ID = prog.Procs[0].Blocks[1].ID
	err := Verify(prog)
	if err == nil || !strings.Contains(err.Error(), "duplicate block id") {
		t.Fatalf("duplicate block id not rejected: %v", err)
	}
}

// A procedure may have up to MaxBlocks blocks: profile parsers bound
// block ids by it, so a checked program's profiles always parse back.
func TestVerifyMaxBlocks(t *testing.T) {
	mk := func(n int) *Program {
		p := &Proc{Name: "main"}
		for i := 0; i < n; i++ {
			p.Blocks = append(p.Blocks, &Block{ID: BlockID(i), Origin: BlockID(i), Instrs: []Instr{Jmp(BlockID((i + 1) % n))}})
		}
		return &Program{Procs: []*Proc{p}}
	}
	if err := Verify(mk(MaxBlocks)); err != nil {
		t.Fatalf("procedure of MaxBlocks blocks rejected: %v", err)
	}
	err := Verify(mk(MaxBlocks + 1))
	if err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("procedure of MaxBlocks+1 blocks not rejected: %v", err)
	}
}

// Regression: a call argument register below zero indexed the frame
// out of bounds in the interpreter instead of failing verification.
func TestVerifyNegativeArgRegister(t *testing.T) {
	prog := diamond(t)
	b := prog.Procs[0].Blocks[3]
	b.Instrs[len(b.Instrs)-1] = Call(1, 0, 5, Reg(-2))
	err := Verify(prog)
	if err == nil || !strings.Contains(err.Error(), "negative argument register") {
		t.Fatalf("negative argument register not rejected: %v", err)
	}
}

// The Units annotation must cover every instruction and stay within
// the merged superblock's constituent count.
func TestVerifyUnitsAnnotation(t *testing.T) {
	mk := func(mutate func(b *Block)) error {
		prog := diamond(t)
		b := prog.Procs[0].Blocks[0]
		b.SBSize = 2
		b.Units = make([]int32, len(b.Instrs))
		for i := range b.Units {
			b.Units[i] = 1
		}
		mutate(b)
		return Verify(prog)
	}
	if err := mk(func(b *Block) {}); err != nil {
		t.Fatalf("valid Units rejected: %v", err)
	}
	if err := mk(func(b *Block) { b.Units = b.Units[:1] }); err == nil {
		t.Fatal("short Units accepted")
	}
	if err := mk(func(b *Block) { b.Units[0] = 0 }); err == nil {
		t.Fatal("zero unit accepted")
	}
	if err := mk(func(b *Block) { b.Units[0] = 3 }); err == nil {
		t.Fatal("unit beyond SBSize accepted")
	}
}

// Regression: the parser reported a repeated block label as an
// out-of-order block, pointing the user at the wrong problem.
func TestParseDuplicateBlockLabel(t *testing.T) {
	text := WriteText(loopProg(t))
	dup := strings.Replace(text, "block b1:", "block b0:", 1)
	_, err := ParseText(dup)
	if err == nil || !strings.Contains(err.Error(), "duplicate block label") {
		t.Fatalf("duplicate block label not rejected: %v", err)
	}
}
