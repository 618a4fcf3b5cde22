package main

import (
	"math"
	"path/filepath"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/ir"
	"pathsched/internal/pipeline"
)

// small is a fast subset of the suite: two seedless microbenchmarks and
// two seeded programs.
var small = []string{"alt", "ph", "corr", "wc"}

func mustGenerate(t *testing.T, names []string, seed uint64) []*program {
	t.Helper()
	suite, err := generate(names, seed)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// TestWorkCountersRepeat runs two traced passes of every workload and
// requires the deterministic work counters to repeat exactly, the
// traced measurements to equal the untraced runner's, and the traced
// cache lookups to match the runner's CacheStats. Per-layer allocation
// is only nearly deterministic, so its spread is logged, not asserted.
func TestWorkCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			suite := mustGenerate(t, small, 5)
			sdir := filepath.Join(t.TempDir(), "store")
			if w.store {
				if err := populateStore(small, 5, sdir); err != nil {
					t.Fatal(err)
				}
			}
			plain := runPass(w, suite, sdir)
			if plain.failed != 0 {
				t.Fatalf("untraced pass: %d failed measurements", plain.failed)
			}
			var runs [2]*reenact
			for i := range runs {
				pr, e := tracedPass(w, suite, sdir)
				if pr.failed != 0 {
					t.Fatalf("traced pass %d: %d failed measurements", i, pr.failed)
				}
				if n := diff(plain.meas, pr.meas); n != 0 || len(pr.meas) != len(plain.meas) {
					t.Fatalf("traced pass %d: %d of %d measurements differ from the runner's", i, n, len(plain.meas))
				}
				if !e.compileTier.matches(plain.cache.Compile) || !e.layoutTier.matches(plain.cache.Layout) {
					t.Fatalf("traced lookups compile %+v layout %+v, runner %v", e.compileTier, e.layoutTier, plain.cache)
				}
				runs[i] = e
			}
			a, b := counters(runs[0]), counters(runs[1])
			if a != b {
				t.Fatalf("work counters differ across traced runs:\n%+v\n%+v", a, b)
			}
			if a.dynInstrs == 0 || a.icacheMisses == 0 {
				t.Fatalf("empty counters %+v", a)
			}
			if formed := a.traces > 0; formed == w.store {
				t.Errorf("core.traces = %d on %s", a.traces, w.name)
			}
			if w.gated && (a.proved == 0 || a.procs == 0) {
				t.Errorf("validator counters %+v on a gated workload", a)
			}
			_, alloc0 := runs[0].tr.selfTimes()
			_, alloc1 := runs[1].tr.selfTimes()
			for _, l := range layers {
				if x, y := float64(alloc0[l]), float64(alloc1[l]); x+y > 0 {
					t.Logf("%s alloc %.3f MB vs %.3f MB (spread %.4f)", l, x/1e6, y/1e6, math.Abs(x-y)/math.Max(x, y))
				}
			}
		})
	}
}

// TestSeedOffsetsInputs checks that the workload seed reaches the
// seeded benchmarks' generated programs and leaves the seedless
// microbenchmarks alone.
func TestSeedOffsetsInputs(t *testing.T) {
	s0, s1 := mustGenerate(t, []string{"alt", "wc"}, 0), mustGenerate(t, []string{"alt", "wc"}, 1)
	if ir.Fingerprint(s0[0].test) != ir.Fingerprint(s1[0].test) {
		t.Error("alt depends on the seed")
	}
	if ir.Fingerprint(s0[1].test) == ir.Fingerprint(s1[1].test) {
		t.Error("wc ignores the seed")
	}
	if got, want := s1[1].b.Test.Seed, bench.ByName("wc").Test.Seed+1; got != want {
		t.Errorf("wc test seed %d, want %d", got, want)
	}
}

// TestPipelineErrorCountsAsFailed feeds the runner a benchmark whose
// training and testing builds have different shapes: the pipeline
// rejects it, and the pass must count its five measurements as failed
// while still measuring the rest of the suite.
func TestPipelineErrorCountsAsFailed(t *testing.T) {
	suite := mustGenerate(t, []string{"alt", "wc"}, 0)
	broken := *suite[0].b
	other := suite[1]
	broken.Build = func(in bench.Input) *ir.Program {
		if in == broken.Train {
			return ir.CloneProgram(suite[0].train)
		}
		return ir.CloneProgram(other.test)
	}
	broken.Test.Label = "mismatched"
	suite[0].b = &broken
	w, _ := workloadByName("suite-cold")
	pr := runPass(w, suite, "")
	if pr.failed != len(pipeline.AllSchemes()) {
		t.Fatalf("failed = %d, want %d", pr.failed, len(pipeline.AllSchemes()))
	}
	if len(pr.meas) != len(pipeline.AllSchemes()) {
		t.Fatalf("%d measurements survived, want wc's %d", len(pr.meas), len(pipeline.AllSchemes()))
	}
	tr, _ := tracedPass(w, suite, "")
	if tr.failed == 0 {
		t.Fatal("traced pass accepted the mismatched benchmark")
	}
}
