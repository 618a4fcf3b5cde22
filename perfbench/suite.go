package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"pathsched/internal/bench"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

// workload is one pipeline configuration the benchmark measures.
type workload struct {
	name     string
	profiler pipeline.ProfilerScheme
	gated    bool // semantic checker and translation validator on
	store    bool // passes read an artifact store populated during set-up
}

var workloads = []workload{
	{name: "suite-cold", profiler: pipeline.ProfilerWindow},
	{name: "store-warm", profiler: pipeline.ProfilerWindow, store: true},
	{name: "checked-bl", profiler: pipeline.ProfilerBL, gated: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options is the pipeline configuration of every pass of w: all five
// schemes' defaults, the default machine and I-cache, and a serial
// pipeline so layer times never overlap.
func (w workload) options(st *store.Store) pipeline.Options {
	ic := machine.DefaultICache()
	o := pipeline.Options{
		Machine:       machine.Default(),
		Cache:         &ic,
		Profiler:      w.profiler,
		Parallelism:   1,
		Check:         pipeline.CheckOff,
		Validate:      pipeline.ValidateOff,
		ArtifactStore: st,
	}
	if w.gated {
		o.Check, o.Validate = pipeline.CheckOn, pipeline.ValidateOn
	}
	return o
}

// program is one suite member with its inputs generated from the
// workload seed. b is a copy of the registered benchmark whose Build
// hands out clones of the generated programs, so the pipeline receives
// only those and every pass starts from fresh (undecoded) builds.
type program struct {
	b           *bench.Benchmark
	train, test *ir.Program
}

// generate builds every named benchmark with its training and testing
// seeds offset by seed. Microbenchmarks ignore seeds.
func generate(names []string, seed uint64) ([]*program, error) {
	out := make([]*program, 0, len(names))
	for _, n := range names {
		reg := bench.ByName(n)
		if reg == nil {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		b := *reg
		b.Train.Seed += seed
		b.Test.Seed += seed
		p := &program{b: &b, train: reg.Build(b.Train), test: reg.Build(b.Test)}
		for _, prog := range []*ir.Program{p.train, p.test} {
			if err := ir.Verify(prog); err != nil {
				return nil, fmt.Errorf("%s: generated program invalid: %w", n, err)
			}
		}
		trainIn, testIn := b.Train, b.Test
		b.Build = func(in bench.Input) *ir.Program {
			switch in {
			case trainIn:
				return ir.CloneProgram(p.train)
			case testIn:
				return ir.CloneProgram(p.test)
			}
			panic(fmt.Sprintf("%s: input %+v was not generated", n, in))
		}
		out = append(out, p)
	}
	return out, nil
}

// mkey names one (benchmark, scheme) measurement.
type mkey struct {
	bench  string
	scheme pipeline.Scheme
}

// outcome is what one measurement must reproduce exactly, run after
// run and traced or not.
type outcome struct {
	Cycles, IdealCycles, CodeBytes, CacheMisses, DynInstrs int64
}

// passResult is one pass over the suite: the measurements that passed,
// the count that failed, and the process counters around it.
type passResult struct {
	meas   map[mkey]outcome
	orig   map[string]int64 // untransformed code bytes per benchmark
	failed int
	cache  pipeline.CacheStats
	walls  []float64 // seconds per benchmark, in suite order

	wall, cpu, gcCPU, gcPause, allocMB float64
}

func newPassResult() *passResult {
	return &passResult{meas: map[mkey]outcome{}, orig: map[string]int64{}}
}

// attempted is the number of measurements one pass tries.
func attempted(suite []*program) int { return len(suite) * len(pipeline.AllSchemes()) }

// runPass measures the suite once through a fresh pipeline.Runner. A
// benchmark whose pipeline run errors (including a divergence from the
// reference run, which the runner reports as an error) counts every
// scheme as failed; on gated workloads so does a compile the validator
// did not accept.
func runPass(w workload, suite []*program, storeDir string) *passResult {
	pr := newPassResult()
	var st *store.Store
	if w.store {
		var err error
		if st, err = store.Open(storeDir, store.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			pr.failed = attempted(suite)
			return pr
		}
	}
	r := pipeline.NewRunner(w.options(st))
	schemes := pipeline.AllSchemes()
	for _, p := range suite {
		t0 := time.Now()
		res, err := r.RunBenchmark(p.b, schemes)
		pr.walls = append(pr.walls, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			pr.failed += len(schemes)
			continue
		}
		pr.orig[p.b.Name] = res.OrigCodeBytes
		for _, s := range schemes {
			m := res.ByScheme[s]
			if w.gated && (m.Validation == nil || m.Validation.Failed > 0) {
				fmt.Fprintf(os.Stderr, "perfbench: %s/%s: validation %v\n", p.b.Name, s, m.Validation)
				pr.failed++
				continue
			}
			pr.meas[mkey{p.b.Name, s}] = outcome{
				Cycles:      m.Cycles,
				IdealCycles: m.IdealCycles,
				CodeBytes:   m.CodeBytes,
				CacheMisses: m.CacheMisses,
				DynInstrs:   m.DynInstrs,
			}
		}
	}
	pr.cache, _ = r.CacheStats()
	return pr
}

// timed runs one pass after a full collection that also returns the
// freed heap to the OS, so every pass starts from the memory state of a
// fresh process, and fills in its wall time, process CPU time, and GC
// and allocation counters.
func timed(pass func() *passResult) *passResult {
	debug.FreeOSMemory()
	before := readProc()
	t0 := time.Now()
	pr := pass()
	pr.wall = time.Since(t0).Seconds()
	after := readProc()
	pr.cpu = after.cpu - before.cpu
	pr.gcCPU = after.gcCPU - before.gcCPU
	pr.gcPause = float64(after.pauseNS-before.pauseNS) / 1e9
	pr.allocMB = float64(after.alloc-before.alloc) / 1e6
	return pr
}

type procCounters struct {
	cpu, gcCPU     float64
	pauseNS, alloc uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return procCounters{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		gcCPU:   s[0].Value.Float64(),
		pauseNS: ms.PauseTotalNs,
		alloc:   ms.TotalAlloc,
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// diff counts the measurements of got that differ from want's. Every
// pass must reproduce the first one exactly.
func diff(want, got map[mkey]outcome) int {
	n := 0
	for k, o := range want {
		if g, ok := got[k]; ok && g != o {
			fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %+v, earlier pass %+v\n", k.bench, k.scheme, g, o)
			n++
		}
	}
	return n
}

// resultMetrics are the paper's headline ratios, as geomeans over the
// suite: cycles against M4 with the I-cache (Figs 5 and 6), P4 against
// M4 with an ideal I-cache (Fig 4), and P4 code growth.
func resultMetrics(pr *passResult, suite []*program) map[string]float64 {
	ratio := func(num, den func(string) (int64, bool)) float64 {
		logSum, n := 0.0, 0
		for _, p := range suite {
			name := p.b.Name
			a, ok1 := num(name)
			b, ok2 := den(name)
			if ok1 && ok2 && a > 0 && b > 0 {
				logSum += math.Log(float64(a) / float64(b))
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return math.Exp(logSum / float64(n))
	}
	field := func(s pipeline.Scheme, f func(outcome) int64) func(string) (int64, bool) {
		return func(name string) (int64, bool) {
			o, ok := pr.meas[mkey{name, s}]
			return f(o), ok
		}
	}
	cycles := func(o outcome) int64 { return o.Cycles }
	ideal := func(o outcome) int64 { return o.IdealCycles }
	orig := func(name string) (int64, bool) { v, ok := pr.orig[name]; return v, ok }
	return map[string]float64{
		"cycles_p4_norm":  ratio(field(pipeline.SchemeP4, cycles), field(pipeline.SchemeM4, cycles)),
		"cycles_p4e_norm": ratio(field(pipeline.SchemeP4e, cycles), field(pipeline.SchemeM4, cycles)),
		"cycles_m16_norm": ratio(field(pipeline.SchemeM16, cycles), field(pipeline.SchemeM4, cycles)),
		"ideal_p4_norm":   ratio(field(pipeline.SchemeP4, ideal), field(pipeline.SchemeM4, ideal)),
		"code_growth_p4":  ratio(field(pipeline.SchemeP4, func(o outcome) int64 { return o.CodeBytes }), orig),
	}
}
