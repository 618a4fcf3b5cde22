package profile_test

import (
	"os"
	"path/filepath"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/check"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/profile"
)

// trainWindow runs one benchmark's training input under the batched
// window profiler, as profile.Train does, and returns the program with
// the live profiler.
func trainWindow(t testing.TB, name string, cfg profile.PathConfig) (*ir.Program, *profile.PathProfiler) {
	t.Helper()
	bm := bench.ByName(name)
	prog := bm.Build(bm.Train)
	pp := profile.NewPathProfiler(prog, cfg)
	if _, err := interp.Run(prog, interp.Config{Batch: pp}); err != nil {
		t.Fatal(err)
	}
	return prog, pp
}

// The serialized path profile of a real training run is pinned byte
// for byte: line order is part of the format (diffs and cache keys
// over profile text depend on it), so a change to how windows are
// sorted or frozen must not move a single line. A deliberate format
// change edits the golden in its own diff.
func TestPathProfileTextGolden(t *testing.T) {
	_, pp := trainWindow(t, "alt", profile.PathConfig{})
	got := pp.WriteText()
	path := filepath.Join("testdata", "alt.pathprofile")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("alt path profile text drifted from %s", path)
	}
}

// fuzzSeeds name the benchmarks whose training runs seed the fuzzers.
// Path profiles are gathered at depth 3, which keeps perl's text near
// 40KB (at the default depth it is ten times that, and every fuzz
// execution parses, writes and re-parses its input).
var fuzzSeeds = []string{"alt", "wc", "perl"}

var fuzzSeedConfig = profile.PathConfig{Depth: 3}

// FuzzParsePathProfile feeds mutated path-profile text to the parser.
// Every input must either be rejected with an error or parse into a
// profile whose text is a WriteText∘Parse fixed point, and freezing it
// and running every query must not panic.
func FuzzParsePathProfile(f *testing.F) {
	progs := map[string]*ir.Program{}
	for _, name := range fuzzSeeds {
		prog, pp := trainWindow(f, name, fuzzSeedConfig)
		progs[name] = prog
		f.Add(name, pp.WriteText())
	}
	f.Add("alt", "pathprofile depth=2 maxblocks=3\nproc 0\npath 3: b0 b1\npath 1: b1\n")
	f.Fuzz(func(t *testing.T, name, text string) {
		prog := progs[name]
		if prog == nil {
			prog = progs[fuzzSeeds[0]]
		}
		pp, err := profile.ParsePathProfiler(prog, text)
		if err != nil {
			return
		}
		out := pp.WriteText()
		again, err := profile.ParsePathProfiler(prog, out)
		if err != nil {
			t.Fatalf("re-parse of written text failed: %v\n%s", err, out)
		}
		if again.WriteText() != out {
			t.Fatalf("WriteText∘Parse is not a fixed point:\n%s", out)
		}
		pf := pp.Profile()
		for pid := range prog.Procs {
			pid := ir.ProcID(pid)
			pf.Walk(pid, func(seq []ir.BlockID, n int64) {
				if got := pf.Freq(pid, seq); got != n {
					t.Fatalf("proc %d: Walk says %s ran %d times, Freq says %d", pid, profile.FmtSeq(seq), n, got)
				}
			})
			for _, b := range pf.BlocksByFreq(pid) {
				seq := []ir.BlockID{b}
				pf.MostLikelyPathSuccessor(pid, pf.TrimToDepth(pid, seq))
				pf.SuccFreqs(pid, seq)
			}
		}
		check.PathFlow(prog, pf, nil)
	})
}

// FuzzParseEdgeProfile is FuzzParsePathProfile for edge-profile text:
// rejected, or a WriteText∘Parse fixed point that the flow checker and
// the cross-check against a path profile can read without panicking.
func FuzzParseEdgeProfile(f *testing.F) {
	progs := map[string]*ir.Program{}
	paths := map[string]*profile.PathProfile{}
	for _, name := range fuzzSeeds {
		bm := bench.ByName(name)
		prog := bm.Build(bm.Train)
		tp, err := profile.Train(prog, fuzzSeedConfig)
		if err != nil {
			f.Fatal(err)
		}
		progs[name], paths[name] = prog, tp.Path
		f.Add(name, tp.Edge.WriteText())
	}
	f.Add("alt", "edgeprofile\nproc 0 entries=1\nblock b100000000: 1\n")
	f.Fuzz(func(t *testing.T, name, text string) {
		prog := progs[name]
		if prog == nil {
			name = fuzzSeeds[0]
			prog = progs[name]
		}
		ep, err := profile.ParseEdgeProfile(len(prog.Procs), text)
		if err != nil {
			return
		}
		out := ep.WriteText()
		again, err := profile.ParseEdgeProfile(len(prog.Procs), out)
		if err != nil {
			t.Fatalf("re-parse of written text failed: %v\n%s", err, out)
		}
		if again.WriteText() != out {
			t.Fatalf("WriteText∘Parse is not a fixed point:\n%s", out)
		}
		check.EdgeFlow(prog, ep)
		check.PathFlow(prog, paths[name], ep)
	})
}
