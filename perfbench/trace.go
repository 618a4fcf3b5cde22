package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"time"

	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/store"
	"pathsched/internal/validate"
)

// layers lists every span name the traced pass records around a call
// into a module's public functions. Each becomes a per-layer "<name>_s"
// self-time metric; the pass's untimed remainder is pipeline.other_s.
var layers = []string{
	"profile.train", "profile.point",
	"core.form", "sched.compact",
	"check.flow", "check.sb", "check.compact", "validate.equiv",
	"ir.fingerprint", "store.get", "ir.decode", "trace.reload",
	"layout.assign", "interp.ref", "interp.measure",
}

// span is one traced interval. Layer spans are leaves; benchmark and
// scheme spans are their parents. All spans of one (benchmark, scheme)
// share id.
type span struct {
	name, id   string
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
	alloc      uint64 // heap bytes allocated inside the span
	layer      bool
}

// tracer keeps spans in memory; they are written out after the run.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) begin(name, id string, layer bool) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, layer: layer, alloc: t.allocated(), start: time.Since(t.origin)})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.end = time.Since(t.origin)
	s.alloc = t.allocated() - s.alloc
}

// layer times fn as one call into the named layer.
func (t *tracer) layer(name, id string, fn func()) {
	t.begin(name, id, true)
	fn()
	t.end()
}

// selfTimes sums each layer's self time (duration minus the part its
// children cover) and allocated bytes over all its spans.
func (t *tracer) selfTimes() (secs map[string]float64, alloc map[string]uint64) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	secs, alloc = map[string]float64{}, map[string]uint64{}
	for i, s := range t.spans {
		if s.layer {
			secs[s.name] += (s.end - s.start - child[i]).Seconds()
			alloc[s.name] += s.alloc
		}
	}
	return secs, alloc
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON. Spans nest
// benchmark → scheme → layer by time containment on one thread, and
// args.id carries the (benchmark, scheme) identifier they share.
func (t *tracer) writeChrome(path string, env map[string]any) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		cat := "layer"
		if !s.layer {
			cat = s.name
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "alloc_bytes": s.alloc},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": env})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tierCounts mirrors one pipeline.TierStats row for a serial run.
type tierCounts struct{ mem, disk, build int64 }

func (c tierCounts) matches(t pipeline.TierStats) bool {
	return c.mem == t.MemHits && c.disk == t.DiskHits && c.build == t.Builds && t.Dedups == 0 && t.ClaimWaits == 0
}

// reenact replays pipeline.Runner's serial stage sequence for one pass
// from the modules' public functions, recording a span around every
// call: per benchmark the training run, profile checks, reference run
// and pristine fingerprints; per scheme the training and testing
// compiles (memoized by the runner's compile key, read from the
// artifact store on store workloads), the layout-profiling run
// (memoized by the formed training build's fingerprint), layout and
// the measurement run with the I-cache.
type reenact struct {
	w  workload
	tr *tracer
	st *store.Store

	compiles map[ir.Digest]*compiledArt
	layouts  map[ir.Digest]layout.Input

	compileTier, layoutTier tierCounts
	form                    core.Stats     // formation work of the compiles built
	valid                   validate.Stats // validator tallies of the compiles built
	pr                      *passResult
}

// tracedPass re-enacts one pass over the suite.
func tracedPass(w workload, suite []*program, storeDir string) (*passResult, *reenact) {
	e := &reenact{
		w:        w,
		tr:       newTracer(),
		compiles: map[ir.Digest]*compiledArt{},
		layouts:  map[ir.Digest]layout.Input{},
	}
	pr := timed(func() *passResult {
		e.pr = newPassResult()
		if w.store {
			var err error
			if e.st, err = store.Open(storeDir, store.Options{}); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				e.pr.failed = attempted(suite)
				return e.pr
			}
		}
		for _, p := range suite {
			e.tr.begin("benchmark", p.b.Name, false)
			if err := e.benchmark(p); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", p.b.Name, err)
				e.pr.failed += len(pipeline.AllSchemes())
			}
			e.tr.end()
		}
		return e.pr
	})
	return pr, e
}

func (e *reenact) benchmark(p *program) error {
	id := p.b.Name
	trainProg, testProg := p.b.Build(p.b.Train), p.b.Build(p.b.Test)
	if err := sameShape(trainProg, testProg); err != nil {
		return fmt.Errorf("train/test builds diverge: %w", err)
	}
	var tp *profile.TrainingProfiles
	var err error
	e.tr.layer("profile.train", id, func() {
		if e.w.profiler == pipeline.ProfilerBL {
			tp, err = profile.TrainBL(trainProg, profile.BLConfig{})
		} else {
			tp, err = profile.Train(trainProg, profile.PathConfig{})
		}
	})
	if err != nil {
		return err
	}
	var bases [2]check.Baseline
	if e.w.gated {
		e.tr.layer("check.flow", id, func() {
			vs := check.EdgeFlow(trainProg, tp.Edge)
			vs = append(vs, check.PathFlow(trainProg, tp.Path, tp.Edge)...)
			if tp.BL != nil {
				vs = append(vs, check.BLFlow(trainProg, tp.BL, tp.Edge)...)
			}
			err = check.Err("profile", vs)
		})
		if err != nil {
			return err
		}
		e.tr.layer("check.compact", id, func() {
			bases = [2]check.Baseline{check.BaselineOf(trainProg), check.BaselineOf(testProg)}
		})
	}
	var ref *interp.Result
	e.tr.layer("interp.ref", id, func() { ref, err = interp.Run(testProg, interp.Config{}) })
	if err != nil {
		return err
	}
	var trainFP, testFP ir.Digest
	e.tr.layer("ir.fingerprint", id, func() {
		trainFP, testFP = ir.Fingerprint(trainProg), ir.Fingerprint(testProg)
	})
	e.pr.orig[id] = testProg.CodeBytes()
	for _, s := range pipeline.AllSchemes() {
		k := mkey{id, s}
		sid := id + "/" + string(s)
		e.tr.begin("scheme", sid, false)
		o, err := e.scheme(s, sid, tp, trainProg, testProg, trainFP, testFP, bases, ref)
		e.tr.end()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", sid, err)
			e.pr.failed++
			continue
		}
		e.pr.meas[k] = o
	}
	return nil
}

// formConfig mirrors the runner's per-scheme formation config; ok is
// false for the basic-block baseline.
func formConfig(s pipeline.Scheme, tp *profile.TrainingProfiles) (cfg core.Config, ok bool) {
	if s == pipeline.SchemeBB {
		return core.Config{}, false
	}
	cfg = core.DefaultConfig()
	cfg.Edge, cfg.Path = tp.Edge, tp.Path
	cfg.Parallelism = 1
	switch s {
	case pipeline.SchemeM4:
		cfg.Method, cfg.UnrollFactor = core.EdgeBased, 4
	case pipeline.SchemeM16:
		cfg.Method, cfg.UnrollFactor = core.EdgeBased, 16
	case pipeline.SchemeP4:
		cfg.Method = core.PathBased
	case pipeline.SchemeP4e:
		cfg.Method, cfg.StopNonLoopAtFirstHead = core.PathBased, true
	}
	return cfg, true
}

func (e *reenact) scheme(s pipeline.Scheme, id string, tp *profile.TrainingProfiles, trainProg, testProg *ir.Program, trainFP, testFP ir.Digest, bases [2]check.Baseline, ref *interp.Result) (outcome, error) {
	cfg, haveCfg := formConfig(s, tp)
	trainC, err := e.compile(compileKey(trainFP, trainFP, e.w.gated, cfg, haveCfg, e.w.profiler), id, trainProg, bases[0], cfg, haveCfg)
	if err != nil {
		return outcome{}, fmt.Errorf("train compile: %w", err)
	}
	testC, err := e.compile(compileKey(testFP, trainFP, e.w.gated, cfg, haveCfg, e.w.profiler), id, testProg, bases[1], cfg, haveCfg)
	if err != nil {
		return outcome{}, fmt.Errorf("test compile: %w", err)
	}
	if err := sameShape(trainC.master, testC.master); err != nil {
		return outcome{}, fmt.Errorf("formed builds diverge: %w", err)
	}
	lin, err := e.layoutOf(id, trainC)
	if err != nil {
		return outcome{}, err
	}
	bin := ir.CloneProgram(testC.master)
	e.tr.layer("layout.assign", id, func() { layout.Assign(bin, lin) })
	var got *interp.Result
	var cache *machine.ICache
	e.tr.layer("interp.measure", id, func() {
		cache = machine.NewICache(machine.DefaultICache())
		got, err = interp.EngineFor(bin).Run(interp.Config{Fetch: cache})
	})
	if err != nil {
		return outcome{}, fmt.Errorf("measurement run: %w", err)
	}
	if got.Ret != ref.Ret || !slices.Equal(got.Output, ref.Output) {
		return outcome{}, fmt.Errorf("transformed program diverged from the reference run")
	}
	if e.w.gated && (testC.vstats == nil || testC.vstats.Failed > 0) {
		return outcome{}, fmt.Errorf("validation %v", testC.vstats)
	}
	return outcome{
		Cycles:      got.Cycles,
		IdealCycles: got.Cycles - got.FetchStall,
		CodeBytes:   bin.CodeBytes(),
		CacheMisses: cache.Misses(),
		DynInstrs:   got.DynInstrs,
	}, nil
}

// sameShape mirrors the runner's check that two builds share their CFG
// structure, which profile transfer between them relies on.
func sameShape(a, b *ir.Program) error {
	if len(a.Procs) != len(b.Procs) {
		return fmt.Errorf("proc count %d vs %d", len(a.Procs), len(b.Procs))
	}
	for i, pa := range a.Procs {
		pb := b.Procs[i]
		if len(pa.Blocks) != len(pb.Blocks) {
			return fmt.Errorf("proc %s: block count %d vs %d", pa.Name, len(pa.Blocks), len(pb.Blocks))
		}
		for j := range pa.Blocks {
			ta, tb := pa.Blocks[j].Terminator(), pb.Blocks[j].Terminator()
			if ta.Op != tb.Op || len(ta.Targets) != len(tb.Targets) {
				return fmt.Errorf("proc %s block b%d: terminators differ", pa.Name, j)
			}
		}
	}
	return nil
}

// compile returns the memoized compile under key: from memory, then
// (store workloads) from the artifact store, else built.
func (e *reenact) compile(key ir.Digest, id string, prog *ir.Program, base check.Baseline, cfg core.Config, haveCfg bool) (*compiledArt, error) {
	if c, ok := e.compiles[key]; ok {
		e.compileTier.mem++
		return c, nil
	}
	if e.st != nil {
		if payload, ok := e.load(pipeline.StoreKindCompile, key, id); ok {
			var c *compiledArt
			var err error
			e.tr.layer("trace.reload", id, func() { c, err = decodeCompiled(payload) })
			if err != nil {
				return nil, err
			}
			e.compileTier.disk++
			e.compiles[key] = c
			return c, nil
		}
	}
	e.compileTier.build++
	c, err := e.build(id, prog, base, cfg, haveCfg)
	if err != nil {
		return nil, err
	}
	e.compiles[key] = c
	return c, nil
}

// load reads and verifies one store entry the way the runner's disk
// tier does; ok is false for a miss or an entry that fails
// verification (the runner rebuilds both).
func (e *reenact) load(kind string, key ir.Digest, id string) (payload []byte, ok bool) {
	hexKey := hex.EncodeToString(key[:])
	e.tr.layer("store.get", id, func() { payload, ok = e.st.Get(kind, hexKey) })
	if !ok {
		return nil, false
	}
	var err error
	e.tr.layer("ir.decode", id, func() { err = pipeline.VerifyEntry(kind, hexKey, payload) })
	return payload, err == nil
}

// build forms, compacts, checks, validates and fingerprints one
// compile, as the runner's compileWith and cachedCompile do.
func (e *reenact) build(id string, prog *ir.Program, base check.Baseline, cfg core.Config, haveCfg bool) (*compiledArt, error) {
	so := sched.Options{Machine: machine.Default(), Parallelism: 1}
	if e.w.gated {
		so.RecordDeps = sched.BlockDeps{}
	}
	c := &compiledArt{}
	var err error
	if haveCfg {
		var formed *core.Result
		e.tr.layer("core.form", id, func() { formed, err = core.Form(prog, cfg) })
		if err != nil {
			return nil, err
		}
		if e.w.gated {
			e.tr.layer("check.sb", id, func() { err = check.Err("form", check.Superblocks(formed)) })
			if err != nil {
				return nil, err
			}
		}
		e.tr.layer("sched.compact", id, func() { err = sched.Compact(formed, so) })
		c.master, c.stats = formed.Prog, formed.Stats
	} else {
		c.master = ir.CloneProgram(prog)
		e.tr.layer("sched.compact", id, func() { err = sched.CompactBasicBlocks(c.master, so) })
	}
	if err != nil {
		return nil, err
	}
	if e.w.gated {
		e.tr.layer("check.compact", id, func() {
			vs := check.SchedulesWithDeps(c.master, so.Machine, so.RecordDeps)
			err = check.Err("compact", append(vs, check.DefBeforeUse(c.master, base)...))
		})
		if err != nil {
			return nil, err
		}
		var rep *validate.Report
		var vs []check.Violation
		e.tr.layer("validate.equiv", id, func() { rep, vs = check.Equiv(prog, c.master, validate.Options{}) })
		if err := check.Err("validate", vs); err != nil {
			return nil, err
		}
		c.vstats = &rep.Stats
		e.valid.Add(rep.Stats)
	}
	e.tr.layer("ir.fingerprint", id, func() { c.fp = ir.Fingerprint(c.master) })
	e.form.Traces += c.stats.Traces
	e.form.TailDups += c.stats.TailDups
	e.form.EnlargeCopies += c.stats.EnlargeCopies
	return c, nil
}

// layoutOf returns the layout weights of a formed training build,
// memoized by its fingerprint like the runner's layout cache.
func (e *reenact) layoutOf(id string, trainC *compiledArt) (layout.Input, error) {
	if lin, ok := e.layouts[trainC.fp]; ok {
		e.layoutTier.mem++
		return lin, nil
	}
	if e.st != nil {
		if payload, ok := e.load(pipeline.StoreKindLayout, trainC.fp, id); ok {
			var lin layout.Input
			var err error
			e.tr.layer("trace.reload", id, func() { lin, err = decodeLayout(payload) })
			if err != nil {
				return layout.Input{}, err
			}
			e.layoutTier.disk++
			e.layouts[trainC.fp] = lin
			return lin, nil
		}
	}
	e.layoutTier.build++
	var prof *profile.EdgeProfile
	var calls map[[2]ir.ProcID]int64
	var err error
	e.tr.layer("profile.point", id, func() { prof, calls, err = profile.PointProfiles(trainC.master) })
	if err != nil {
		return layout.Input{}, fmt.Errorf("layout training run: %w", err)
	}
	if e.w.gated {
		e.tr.layer("check.flow", id, func() { err = check.Err("layout", check.EdgeFlow(trainC.master, prof)) })
		if err != nil {
			return layout.Input{}, err
		}
	}
	lin := layoutInput(calls, prof)
	e.layouts[trainC.fp] = lin
	return lin, nil
}
