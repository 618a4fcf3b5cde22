package pathsched

// The benchmark harness regenerates every table and figure of the
// paper as Go benchmarks: each sub-benchmark runs the corresponding
// pipeline configuration and reports the figure's quantity via
// b.ReportMetric, so `go test -bench=.` reproduces the evaluation row
// by row (cmd/experiments renders the same data as formatted text).
//
//	BenchmarkTable1     — baseline dynamic statistics per benchmark
//	BenchmarkFigure4    — P4 vs M4, ideal I-cache (metric P4/M4)
//	BenchmarkFigure5    — P4 and P4e vs M4 with the 32KB I-cache
//	BenchmarkFigure6    — P4e and M16 vs M4 with the I-cache
//	BenchmarkFigure7    — blocks executed per superblock vs size
//	BenchmarkMissRates  — I-cache miss rates (the §4 gcc/go discussion)
//
// Component benchmarks at the bottom measure the infrastructure
// itself (profiling overhead, formation, compaction, interpretation).

import (
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
)

func runOnce(b *testing.B, name string, schemes []pipeline.Scheme, cache bool) *pipeline.Result {
	b.Helper()
	opts := pipeline.Options{}
	if cache {
		c := machine.DefaultICache()
		opts.Cache = &c
	}
	runner := pipeline.NewRunner(opts)
	res, err := runner.RunBenchmark(bench.ByName(name), schemes)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkTable1(b *testing.B) {
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, name, []pipeline.Scheme{pipeline.SchemeBB}, false)
			}
			m := res.ByScheme[pipeline.SchemeBB]
			b.ReportMetric(float64(m.DynBranches)/1e3, "Kbranches")
			b.ReportMetric(float64(m.IdealCycles)/1e3, "Kcycles")
			b.ReportMetric(float64(m.DynInstrs)/1e3, "Kinstrs")
			b.ReportMetric(float64(res.OrigCodeBytes)/1024, "KBcode")
		})
	}
}

func BenchmarkFigure4(b *testing.B) {
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, name, []pipeline.Scheme{pipeline.SchemeM4, pipeline.SchemeP4}, false)
			}
			m4 := res.ByScheme[pipeline.SchemeM4]
			p4 := res.ByScheme[pipeline.SchemeP4]
			b.ReportMetric(float64(p4.IdealCycles)/float64(m4.IdealCycles), "P4/M4")
		})
	}
}

func BenchmarkFigure5(b *testing.B) {
	schemes := []pipeline.Scheme{pipeline.SchemeM4, pipeline.SchemeP4, pipeline.SchemeP4e}
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, name, schemes, true)
			}
			m4 := res.ByScheme[pipeline.SchemeM4]
			b.ReportMetric(float64(res.ByScheme[pipeline.SchemeP4].Cycles)/float64(m4.Cycles), "P4/M4")
			b.ReportMetric(float64(res.ByScheme[pipeline.SchemeP4e].Cycles)/float64(m4.Cycles), "P4e/M4")
		})
	}
}

func BenchmarkFigure6(b *testing.B) {
	schemes := []pipeline.Scheme{pipeline.SchemeM4, pipeline.SchemeM16, pipeline.SchemeP4e}
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, name, schemes, true)
			}
			m4 := res.ByScheme[pipeline.SchemeM4]
			b.ReportMetric(float64(res.ByScheme[pipeline.SchemeP4e].Cycles)/float64(m4.Cycles), "P4e/M4")
			b.ReportMetric(float64(res.ByScheme[pipeline.SchemeM16].Cycles)/float64(m4.Cycles), "M16/M4")
		})
	}
}

func BenchmarkFigure7(b *testing.B) {
	schemes := []pipeline.Scheme{pipeline.SchemeM4, pipeline.SchemeM16,
		pipeline.SchemeP4e, pipeline.SchemeP4}
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, name, schemes, false)
			}
			for _, s := range schemes {
				m := res.ByScheme[s]
				b.ReportMetric(m.AvgBlocksExecuted, string(s)+"-exec")
				b.ReportMetric(m.AvgSBSize, string(s)+"-size")
			}
		})
	}
}

func BenchmarkMissRates(b *testing.B) {
	schemes := []pipeline.Scheme{pipeline.SchemeM4, pipeline.SchemeM16,
		pipeline.SchemeP4e, pipeline.SchemeP4}
	for _, name := range []string{"gcc", "go"} {
		b.Run(name, func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, name, schemes, true)
			}
			for _, s := range schemes {
				b.ReportMetric(res.ByScheme[s].MissRate*100, string(s)+"-miss%")
			}
		})
	}
}

// BenchmarkSuiteParallelism measures the experiment pipeline's wall
// clock at different worker counts over a mixed four-benchmark subset:
// j1 is the historical serial order, jmax uses GOMAXPROCS workers at
// both the benchmark and scheme level. On a multi-core runner jmax
// should approach a len(schemes)× speedup; results are identical (see
// TestParallelSuiteReportsAreByteIdentical).
func BenchmarkSuiteParallelism(b *testing.B) {
	names := []string{"alt", "ph", "corr", "wc"}
	for _, cfg := range []struct {
		name string
		par  int
	}{{"j1", 1}, {"jmax", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			c := machine.DefaultICache()
			runner := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: cfg.par})
			for i := 0; i < b.N; i++ {
				if _, err := runner.RunSuite(names, pipeline.AllSchemes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Component benchmarks -------------------------------------------

// BenchmarkProfiling compares edge-profiled, path-profiled, and
// unobserved interpretation of one benchmark, quantifying the paper's
// claim that lazy general-path profiling has edge-profiling-like
// overhead (§3.1).
func BenchmarkProfiling(b *testing.B) {
	prog := bench.ByName("wc").Build(bench.ByName("wc").Train)
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := interp.Run(prog, interp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ep := profile.NewEdgeProfiler(prog)
			if _, err := interp.Run(prog, interp.Config{Observer: ep}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp := profile.NewPathProfiler(prog, profile.PathConfig{})
			if _, err := interp.Run(prog, interp.Config{Observer: pp}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The fast paths the pipeline actually takes: a batched path
	// profiler on a counted run with edge/call reconstruction
	// (profile.Train), and the observer-free fused point profile
	// (profile.PointProfiles).
	b.Run("fast-train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := profile.Train(prog, profile.PathConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fused-edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := profile.PointProfiles(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBLProfiler measures the Ball–Larus numbered-path scheme the
// same way BenchmarkProfiling measures the window profiler: per-event
// observation, the batched training fast path (the direct comparison
// point for fast-train above), and the freeze that decodes numbered
// paths back into a PathProfile.
func BenchmarkBLProfiler(b *testing.B) {
	bm := bench.ByName("wc")
	prog := bm.Build(bm.Train)
	b.Run("path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bl := profile.NewBLProfiler(prog, profile.BLConfig{})
			if _, err := interp.Run(prog, interp.Config{Observer: bl}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bl-train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := profile.TrainBL(prog, profile.BLConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("freeze", func(b *testing.B) {
		tp, err := profile.TrainBL(prog, profile.BLConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tp.BL.Profile()
		}
	})
}

// gccProfilers runs gcc's training input once under each path
// profiler, batched as profile.Train and profile.TrainBL run them, and
// returns the live profilers ready to freeze.
func gccProfilers(b *testing.B) (*ir.Program, *profile.PathProfiler, *profile.BLProfiler) {
	b.Helper()
	bm := bench.ByName("gcc")
	prog := bm.Build(bm.Train)
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Batch: pp}); err != nil {
		b.Fatal(err)
	}
	bl := profile.NewBLProfiler(prog, profile.BLConfig{})
	if _, err := interp.Run(prog, interp.Config{Batch: bl}); err != nil {
		b.Fatal(err)
	}
	return prog, pp, bl
}

// BenchmarkProfileFreeze measures freezing gcc's training profile into
// the queryable PathProfile, for both profilers.
func BenchmarkProfileFreeze(b *testing.B) {
	_, pp, bl := gccProfilers(b)
	b.Run("window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pp.Profile()
		}
	})
	b.Run("bl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bl.Profile()
		}
	})
}

// BenchmarkProfileMostLikelySucc measures formation's successor query
// on a freshly frozen gcc training profile (the freeze itself is not
// timed). The query set grows each executed block greedily along its
// most likely successors, trimming to depth the way core.Form does.
func BenchmarkProfileMostLikelySucc(b *testing.B) {
	prog, pp, _ := gccProfilers(b)
	type query struct {
		p   ir.ProcID
		seq []ir.BlockID
	}
	var queries []query
	pf := pp.Profile()
	for _, p := range prog.Procs {
		for _, blk := range pf.BlocksByFreq(p.ID) {
			seq := []ir.BlockID{blk}
			for step := 0; step < 16; step++ {
				queries = append(queries, query{p.ID, seq})
				s, _ := pf.MostLikelyPathSuccessor(p.ID, seq)
				if s == ir.NoBlock {
					break
				}
				seq = pf.TrimToDepth(p.ID, append(append([]ir.BlockID{}, seq...), s))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pf := pp.Profile()
		b.StartTimer()
		for _, q := range queries {
			pf.MostLikelyPathSuccessor(q.p, q.seq)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(queries)), "ns/query")
}

// BenchmarkFormation measures the form pass alone under both methods.
func BenchmarkFormation(b *testing.B) {
	bm := bench.ByName("gcc")
	prog := bm.Build(bm.Train)
	ep := profile.NewEdgeProfiler(prog)
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: profile.Multi{ep, pp}}); err != nil {
		b.Fatal(err)
	}
	eprof, pprof := ep.Profile(), pp.Profile()
	for _, method := range []core.Method{core.EdgeBased, core.PathBased} {
		b.Run(method.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Method = method
			cfg.Edge, cfg.Path = eprof, pprof
			for i := 0; i < b.N; i++ {
				if _, err := core.Form(prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompaction measures the compact pass alone (merging,
// renaming, DCE, scheduling, allocation) on path-formed superblocks,
// serially as perfbench runs it. Formation runs outside the timer.
func BenchmarkCompaction(b *testing.B) {
	bm := bench.ByName("gcc")
	prog := bm.Build(bm.Train)
	ep := profile.NewEdgeProfiler(prog)
	pp := profile.NewPathProfiler(prog, profile.PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: profile.Multi{ep, pp}}); err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.PathBased
	cfg.Edge, cfg.Path = ep.Profile(), pp.Profile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		formed, err := core.Form(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sched.Compact(formed, sched.Options{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpDispatch races the two dispatch engines on the
// no-observer fast path (a measurement run): the preserved seed engine
// (reference, per-instruction switch over ir.Instr) against the
// pre-decoded threaded-code engine behind interp.Run (decoded), on
// both an unscheduled build and a scheduled P4 binary of the same
// benchmark. The decoded/reference Minstr/s ratio is the speedup the
// decode buys; cmd/benchinterp records it in BENCH_interp.json.
func BenchmarkInterpDispatch(b *testing.B) {
	bm := bench.ByName("wc")
	unsched := bm.Build(bm.Train)
	profs, err := ProfileProgram(bm.Build(bm.Train))
	if err != nil {
		b.Fatal(err)
	}
	scheduled, err := Compile(bm.Build(bm.Train), profs, SchemeP4)
	if err != nil {
		b.Fatal(err)
	}
	engines := []struct {
		name string
		run  func(*Program, interp.Config) (*interp.Result, error)
	}{
		{"reference", interp.ReferenceRun},
		{"decoded", interp.Run},
	}
	progs := []struct {
		name string
		prog *Program
	}{
		{"unscheduled", unsched},
		{"scheduled", scheduled},
	}
	for _, p := range progs {
		for _, e := range engines {
			b.Run(p.name+"/"+e.name, func(b *testing.B) {
				var instrs int64
				for i := 0; i < b.N; i++ {
					res, err := e.run(p.prog, interp.Config{})
					if err != nil {
						b.Fatal(err)
					}
					instrs = res.DynInstrs
				}
				b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}

// event is one captured observer callback, for profiler replay.
type event struct {
	kind byte // 0 enter, 1 exit, 2 edge, 3 block
	p    ProcID
	a, b BlockID
}

type eventRecorder struct {
	events []event
	limit  int
}

func (r *eventRecorder) full() bool { return len(r.events) >= r.limit }
func (r *eventRecorder) EnterProc(p ProcID, entry BlockID) {
	if !r.full() {
		r.events = append(r.events, event{0, p, entry, 0})
	}
}
func (r *eventRecorder) ExitProc(p ProcID) {
	if !r.full() {
		r.events = append(r.events, event{1, p, 0, 0})
	}
}
func (r *eventRecorder) Edge(p ProcID, from, to BlockID) {
	if !r.full() {
		r.events = append(r.events, event{2, p, from, to})
	}
}
func (r *eventRecorder) Block(p ProcID, b BlockID) {
	if !r.full() {
		r.events = append(r.events, event{3, p, b, 0})
	}
}

// BenchmarkProfilerHotPath measures the observer callbacks themselves
// — the per-event cost of the dense edge profiler and of the lazy path
// profiler — by replaying a captured event stream from a real training
// run into a fresh profiler per iteration, without interpreter time in
// the loop.
func BenchmarkProfilerHotPath(b *testing.B) {
	bm := bench.ByName("wc")
	prog := bm.Build(bm.Train)
	rec := &eventRecorder{limit: 1 << 17}
	if _, err := interp.Run(prog, interp.Config{Observer: rec}); err != nil {
		b.Fatal(err)
	}
	replay := func(obs interp.Observer) {
		for _, ev := range rec.events {
			switch ev.kind {
			case 0:
				obs.EnterProc(ev.p, ev.a)
			case 1:
				obs.ExitProc(ev.p)
			case 2:
				obs.Edge(ev.p, ev.a, ev.b)
			case 3:
				obs.Block(ev.p, ev.a)
			}
		}
	}
	b.Run("edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replay(profile.NewEdgeProfiler(prog))
		}
		b.ReportMetric(float64(len(rec.events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
	b.Run("path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replay(profile.NewPathProfiler(prog, profile.PathConfig{}))
		}
		b.ReportMetric(float64(len(rec.events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
	b.Run("multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replay(profile.Multi{
				profile.NewEdgeProfiler(prog),
				profile.NewPathProfiler(prog, profile.PathConfig{}),
				profile.NewCallGraphProfiler(),
			})
		}
		b.ReportMetric(float64(len(rec.events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
	})
}

// batchEv is one captured BatchObserver callback, for replay.
type batchEv struct {
	kind  byte // 0 begin, 1 end, 2 batch
	p     ProcID
	entry BlockID
	recs  []interp.EdgeRec
}

type batchRecorder struct {
	events []batchEv
	nrecs  int
	limit  int
}

func (r *batchRecorder) BeginProc(p ProcID, entry BlockID) {
	if r.nrecs < r.limit {
		r.events = append(r.events, batchEv{kind: 0, p: p, entry: entry})
	}
}
func (r *batchRecorder) EndProc(p ProcID) {
	if r.nrecs < r.limit {
		r.events = append(r.events, batchEv{kind: 1, p: p})
	}
}
func (r *batchRecorder) EdgeBatch(p ProcID, recs []interp.EdgeRec) {
	if r.nrecs < r.limit {
		r.events = append(r.events, batchEv{kind: 2, p: p,
			recs: append([]interp.EdgeRec(nil), recs...)})
		r.nrecs += len(recs)
	}
}

// BenchmarkProfilerBatchHotPath measures the batched delivery path of
// the path profiler — BeginProc/EdgeBatch/EndProc over a captured
// batch stream from a real training run — against which the per-event
// replay in BenchmarkProfilerHotPath/path is the baseline.
func BenchmarkProfilerBatchHotPath(b *testing.B) {
	bm := bench.ByName("wc")
	prog := bm.Build(bm.Train)
	rec := &batchRecorder{limit: 1 << 17}
	if _, err := interp.Run(prog, interp.Config{Batch: rec}); err != nil {
		b.Fatal(err)
	}
	var events int
	for _, ev := range rec.events {
		events += 1 + len(ev.recs)
	}
	for i := 0; i < b.N; i++ {
		pp := profile.NewPathProfiler(prog, profile.PathConfig{})
		for _, ev := range rec.events {
			switch ev.kind {
			case 0:
				pp.BeginProc(ev.p, ev.entry)
			case 1:
				pp.EndProc(ev.p)
			case 2:
				pp.EdgeBatch(ev.p, ev.recs)
			}
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrecords/s")
}

// branchyChain builds an n-block procedure where every block ends in a
// conditional branch to the next two blocks (mod n). It is never
// executed — it only gives the path profiler a legal CFG — so block
// walks can be synthesized to stress specific automaton behaviours.
func branchyChain(n int) *Program {
	bd := NewBuilder("chainbench", 8)
	pb := bd.Proc("main")
	bbs := pb.NewBlocks(n)
	for i, bb := range bbs {
		bb.Add(ir.MovI(1, int64(i)))
		bb.Br(1, bbs[(i+1)%n].ID(), bbs[(i+2)%n].ID())
	}
	return bd.Program()
}

// chainWalk synthesizes a legal random walk of m blocks over a
// branchyChain program (deterministic via a fixed linear generator).
func chainWalk(n, m int) []BlockID {
	walk := make([]BlockID, m)
	state := uint64(12345)
	cur := 0
	for i := range walk {
		walk[i] = BlockID(cur)
		state = state*6364136223846793005 + 1442695040888963407
		cur = (cur + 1 + int(state>>63)) % n
	}
	return walk
}

// BenchmarkProfilerAutomaton isolates the path automaton itself: the
// per-block step cost in dense mode (successor slices indexed by
// BlockID) and in the map-fallback mode used above the block-count
// threshold, plus the node-creation (intern) rate on a cold automaton.
// Every conditional block consumes profiling depth, so a random walk
// over branchyChain churns distinct windows far harder than real
// training runs do.
func BenchmarkProfilerAutomaton(b *testing.B) {
	const m = 1 << 16
	run := func(b *testing.B, nblocks int, wantDense bool) {
		prog := branchyChain(nblocks)
		walk := chainWalk(nblocks, m)
		for i := 0; i < b.N; i++ {
			pp := profile.NewPathProfiler(prog, profile.PathConfig{})
			pp.EnterProc(0, walk[0])
			for _, blk := range walk {
				pp.Block(0, blk)
			}
			pp.ExitProc(0)
			if i == 0 {
				st := pp.AutomatonStats()[0]
				if st.Dense != wantDense {
					b.Fatalf("dense = %v, want %v", st.Dense, wantDense)
				}
				b.ReportMetric(float64(st.Nodes), "nodes")
			}
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mblocks/s")
	}
	b.Run("dense", func(b *testing.B) { run(b, 64, true) })
	b.Run("map", func(b *testing.B) { run(b, 160, false) })
}

// BenchmarkInterpreter measures raw scheduled-code execution speed.
func BenchmarkInterpreter(b *testing.B) {
	prog := demoProgram()
	profs, err := ProfileProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	bin, err := Compile(prog, profs, SchemeP4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		res, err := Execute(bin)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.DynInstrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
