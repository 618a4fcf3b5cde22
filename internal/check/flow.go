package check

import (
	"fmt"
	"sort"

	"pathsched/internal/ir"
	"pathsched/internal/profile"
)

// EdgeFlow verifies Kirchhoff's law over an edge profile gathered from
// a completed run of prog: for every block, executions equal the edge
// traversals into it (plus procedure entries for the entry block);
// edge traversals out of it equal its executions, except that a
// ret-terminated block may keep the balance as returns — and summed
// over the procedure those returns must equal the entries. A corrupted
// or miscounted profile breaks one of these identities at the block
// where it happened.
func EdgeFlow(prog *ir.Program, ep *profile.EdgeProfile) []Violation {
	var out []Violation
	for pid, p := range prog.Procs {
		pid := ir.ProcID(pid)
		if int(pid) >= ep.NumProcs() {
			break
		}
		bad := func(b ir.BlockID, format string, args ...any) {
			out = append(out, Violation{
				Proc: p.Name, Block: b, Instr: NoInstr,
				Msg: fmt.Sprintf(format, args...),
			})
		}
		entries := ep.Entries(pid)
		var retSlack int64
		for _, b := range p.Blocks {
			freq := ep.BlockFreq(pid, b.ID)
			var inflow, outflow int64
			ep.ForEachPred(pid, b.ID, func(_ ir.BlockID, n int64) { inflow += n })
			ep.ForEachSucc(pid, b.ID, func(_ ir.BlockID, n int64) { outflow += n })
			want := inflow
			if b.ID == p.Entry().ID {
				want += entries
			}
			if freq != want {
				bad(b.ID, "flow into block: executed %d times but inflow is %d (%d edge + %d entry)",
					freq, want, inflow, want-inflow)
			}
			if b.Terminator().Op == ir.OpRet {
				if outflow > freq {
					bad(b.ID, "flow out of ret block: outflow %d exceeds %d executions", outflow, freq)
				} else {
					retSlack += freq - outflow
				}
			} else if outflow != freq {
				bad(b.ID, "flow out of block: executed %d times but outflow is %d", freq, outflow)
			}
		}
		if retSlack != entries {
			bad(ir.NoBlock, "returns %d != entries %d", retSlack, entries)
		}
	}
	return out
}

// PathFlow verifies the internal consistency of a path profile: the
// one-block extensions of a sequence cannot sum to more than the
// sequence itself ran, and no sequence runs more often than its first
// adjacent pair (a path cannot run more often than an edge inside it —
// the prefix bound that makes the paper's Figure 1 comparison
// meaningful). Interior pairs are covered transitively: every window
// counting toward seq also counts toward its suffixes, so Freq(seq) ≤
// Freq(seq[i:]), whose own first-pair check bounds it by Freq(seq[i],
// seq[i+1]). When ep is the edge profile of the *same* run and the
// path windows were per-activation, the two profiles are two codings
// of one event stream, so their block frequencies must agree exactly —
// and their edge frequencies too, when the depth bound cannot truncate
// a two-block window.
//
// Both bounds fall out of one depth-first pass over each procedure's
// suffix trie (PathProfile.Walk): a node's children are its one-block
// extensions and its depth-2 ancestor is its first pair, so the pass
// keeps one frame per depth — the node's count and its children's
// running sum — and checks a node's extension sum when the walk leaves
// its subtree.
func PathFlow(prog *ir.Program, pp *profile.PathProfile, ep *profile.EdgeProfile) []Violation {
	var out []Violation
	crossCheck := ep != nil && !pp.CrossActivation()
	type frame struct {
		b      ir.BlockID
		n, ext int64
	}
	var stack []frame // stack[i]: the walk's current node at depth i+1
	var seq []ir.BlockID
	for pid, p := range prog.Procs {
		pid := ir.ProcID(pid)
		if int(pid) >= pp.NumProcs() {
			break
		}
		bad := func(b ir.BlockID, format string, args ...any) {
			out = append(out, Violation{
				Proc: p.Name, Block: b, Instr: NoInstr,
				Msg: fmt.Sprintf(format, args...),
			})
		}
		// leave pops the frames deeper than depth, checking each
		// node's extension sum now that all its children are counted.
		leave := func(depth int) {
			for len(stack) > depth {
				f := stack[len(stack)-1]
				if f.ext > f.n {
					seq = seq[:0]
					for _, g := range stack {
						seq = append(seq, g.b)
					}
					bad(seq[0], "path %s ran %d times but its extensions sum to %d",
						profile.FmtSeq(seq), f.n, f.ext)
				}
				stack = stack[:len(stack)-1]
			}
		}
		pp.Walk(pid, func(s []ir.BlockID, n int64) {
			d := len(s)
			leave(d - 1)
			if d >= 2 {
				stack[d-2].ext += n
			}
			if d >= 3 && n > stack[1].n {
				bad(s[0], "path %s ran %d times, but its edge %s only %d",
					profile.FmtSeq(s), n, profile.FmtSeq(s[:2]), stack[1].n)
			}
			if crossCheck && d == 2 && pp.Depth() >= 2 {
				if en := ep.EdgeFreq(pid, s[0], s[1]); en != n {
					bad(s[0], "edge %s: path profile says %d, edge profile says %d",
						profile.FmtSeq(s), n, en)
				}
			}
			stack = append(stack, frame{b: s[d-1], n: n})
		})
		leave(0)
		if crossCheck {
			for _, b := range p.Blocks {
				if pn, en := pp.BlockFreq(pid, b.ID), ep.BlockFreq(pid, b.ID); pn != en {
					bad(b.ID, "block frequency: path profile says %d, edge profile says %d", pn, en)
				}
				if pp.Depth() >= 2 {
					ep.ForEachSucc(pid, b.ID, func(to ir.BlockID, en int64) {
						if pn := pp.EdgeFreq(pid, b.ID, to); pn != en {
							bad(b.ID, "edge b%d→b%d: edge profile says %d, path profile says %d", b.ID, to, en, pn)
						}
					})
				}
			}
		}
	}
	// Order the findings by proc, block and message for stable
	// diagnostics.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		if out[i].Block != out[j].Block {
			return out[i].Block < out[j].Block
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}
