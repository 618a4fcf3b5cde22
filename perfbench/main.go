// Command perfbench is the suite benchmark. It drives the 14-benchmark
// suite through pipeline.Runner under all five schemes (BB, M4, M16,
// P4e, P4) with the default machine and I-cache, serially, and reports
// one workload's end-to-end metrics; with -trace 1 it instead reports a
// per-layer split taken from a traced re-enactment of the same pipeline
// (trace.go). See README.md for the workloads and metrics.
//
//	perfbench -workload suite-cold -seed 1 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any set-up error exits 1
// without printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pathsched/internal/bench"
	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

// setupReps is how many times a run generates the suite's programs;
// setup_s reports the median.
const setupReps = 21

type config struct {
	workload workload
	names    []string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory: artifact store and trace files
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wname := flag.String("workload", "", "workload: suite-cold, store-warm or checked-bl")
	seed := flag.Uint64("seed", 0, "offset added to every benchmark's training and testing seeds")
	seconds := flag.Float64("seconds", 10, "measure passes until this many seconds have passed (at least two passes, or one untraced/traced pair)")
	trace := flag.Int("trace", 0, "1 reports the per-layer split of a traced run instead of the end-to-end metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for the artifact store and trace files")
	populate := flag.Bool("populate", false, "only populate the -dir artifact store for -seed, then exit (store-warm set-up)")
	flag.Parse()

	names := bench.Names()
	if *populate {
		if err := populateStore(names, *seed, storeDir(*dir)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: populate:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*wname)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{workload: w, names: names, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func storeDir(dir string) string { return filepath.Join(dir, "store") }

// populateStore runs one disk-cold pass that publishes every artifact
// of the store-warm workload. It runs in its own process so that the
// measuring process's peak RSS covers the timed passes only.
func populateStore(names []string, seed uint64, dir string) error {
	suite, err := generate(names, seed)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	w, _ := workloadByName("store-warm")
	r := pipeline.NewRunner(w.options(st))
	for _, p := range suite {
		if _, err := r.RunBenchmark(p.b, pipeline.AllSchemes()); err != nil {
			return err
		}
	}
	return nil
}

// run sets the workload up, measures it, and returns the report.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	env := environment(cfg)

	var suite []*program
	var gen []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if suite, err = generate(cfg.names, cfg.seed); err != nil {
			return nil, err
		}
		gen = append(gen, time.Since(t0).Seconds())
	}
	setup := median(gen)
	sdir := storeDir(cfg.dir)
	if cfg.workload.store {
		t, err := spawnPopulate(cfg, sdir)
		if err != nil {
			return nil, err
		}
		setup += t
	}
	env["peak_rss_reset"] = resetPeakRSS()

	var rep *report
	if cfg.trace {
		rep = traced(cfg, suite, sdir, env)
		rep.Metrics["bench.build_s"] = metric{median(gen), "s"}
	} else {
		rep = untraced(cfg, suite, sdir, env)
		rep.Metrics["setup_s"] = metric{setup, "s"}
	}
	rec, _ := json.Marshal(env)
	fmt.Println("perfbench record:", string(rec))
	return rep, nil
}

// spawnPopulate fills a fresh artifact store from a child process and
// returns its wall time.
func spawnPopulate(cfg config, dir string) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-populate", "-seed", strconv.FormatUint(cfg.seed, 10), "-dir", cfg.dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("populating the artifact store: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// untraced measures passes until cfg.seconds have passed (at least
// two) and reports the end-to-end metrics.
func untraced(cfg config, suite []*program, sdir string, env map[string]any) *report {
	start := time.Now()
	var passes []*passResult
	for len(passes) < 2 || time.Since(start).Seconds() < cfg.seconds {
		passes = append(passes, timed(func() *passResult { return runPass(cfg.workload, suite, sdir) }))
	}
	rep := &report{Attempted: len(passes) * attempted(suite), Metrics: map[string]metric{}}
	var walls, cpus []float64
	var benchWalls [][]float64
	for _, p := range passes {
		rep.Failed += p.failed + diff(passes[0].meas, p.meas)
		walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
		benchWalls = append(benchWalls, p.walls)
	}
	rep.Correct = rep.Failed == 0
	env["passes"], env["pass_wall_s"], env["pass_cpu_s"], env["bench_wall_s"] = len(passes), walls, cpus, benchWalls
	put := func(name string, v float64) { rep.Metrics[name] = metric{v, unitOf(name)} }
	put("wall_s", median(walls))
	put("cpu_s", median(cpus))
	put("peak_rss_mb", peakRSSMB())
	put("pass_frac", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted))
	for name, v := range resultMetrics(passes[0], suite) {
		put(name, v)
	}
	return rep
}

// traced alternates an untraced pass with a traced re-enactment until
// cfg.seconds have passed (at least one pair), checks that both
// measured the same programs, and reports the per-layer split of the
// traced pass with the median wall time.
func traced(cfg config, suite []*program, sdir string, env map[string]any) *report {
	w := cfg.workload
	start := time.Now()
	var plain, tpass []*passResult
	var runs []*reenact
	for len(runs) == 0 || time.Since(start).Seconds() < cfg.seconds {
		plain = append(plain, timed(func() *passResult { return runPass(w, suite, sdir) }))
		pr, e := tracedPass(w, suite, sdir)
		tpass, runs = append(tpass, pr), append(runs, e)
	}
	rep := &report{Attempted: 2 * len(runs) * attempted(suite), Metrics: map[string]metric{}}
	var problems []string
	for i, e := range runs {
		u, t := plain[i], tpass[i]
		rep.Failed += u.failed + t.failed + diff(plain[0].meas, u.meas) + diff(u.meas, t.meas)
		if !e.compileTier.matches(u.cache.Compile) || !e.layoutTier.matches(u.cache.Layout) {
			problems = append(problems, fmt.Sprintf("traced cache lookups (compile %+v, layout %+v) differ from the runner's (%v)", e.compileTier, e.layoutTier, u.cache))
		}
		if a, b := counters(runs[0]), counters(e); a != b {
			problems = append(problems, fmt.Sprintf("work counters differ between traced passes: %+v vs %+v", a, b))
		}
	}

	// Report the traced pass with the median wall time, so its layer
	// self times and remainder add up to the wall time it reports.
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tpass[order[a]].wall < tpass[order[b]].wall })
	mid := order[(len(order)-1)/2]
	e, t := runs[mid], tpass[mid]
	secs, alloc := e.tr.selfTimes()
	put := func(name string, v float64) { rep.Metrics[name] = metric{v, unitOf(name)} }
	other := t.wall
	for _, l := range layers {
		put(l+"_s", secs[l])
		other -= secs[l]
	}
	if other < 0 {
		problems = append(problems, fmt.Sprintf("layer self times exceed the traced wall time by %.3fs", -other))
	}
	put("pipeline.other_s", other)
	put("trace.wall_s", t.wall)
	var uw, gcCPU, gcPause, allocMB []float64
	for _, u := range plain {
		uw, gcCPU, gcPause, allocMB = append(uw, u.wall), append(gcCPU, u.gcCPU), append(gcPause, u.gcPause), append(allocMB, u.allocMB)
	}
	put("trace.overhead_frac", t.wall/median(uw)-1)
	put("gc.cpu_s", median(gcCPU))
	put("gc.pause_s", median(gcPause))
	put("alloc_mb", median(allocMB))
	put("core.alloc_mb", float64(alloc["core.form"])/1e6)
	put("sched.alloc_mb", float64(alloc["sched.compact"])/1e6)
	put("profile.alloc_mb", float64(alloc["profile.train"]+alloc["profile.point"])/1e6)

	c := counters(e)
	put("core.traces", float64(c.traces))
	put("core.dup_blocks", float64(c.dupBlocks))
	put("interp.dyn_instrs", float64(c.dynInstrs))
	put("machine.icache_misses", float64(c.icacheMisses))
	put("validate.proved", float64(c.proved))
	put("validate.bounded", float64(c.bounded))
	proved := 0.0
	if c.procs > 0 {
		proved = float64(c.proved) / float64(c.procs)
	}
	put("validate.proved_frac", proved)
	cs := plain[mid].cache
	builds := cs.Compile.Builds + cs.Layout.Builds
	lookups := builds + cs.Compile.MemHits + cs.Compile.DiskHits + cs.Layout.MemHits + cs.Layout.DiskHits
	put("pipeline.builds", float64(builds))
	put("pipeline.hit_frac", 1-float64(builds)/float64(max(lookups, 1)))

	putS, putBytes := 0.0, int64(0)
	if w.store {
		var err error
		if putS, putBytes, err = timePublish(sdir, filepath.Join(cfg.dir, "republish")); err != nil {
			problems = append(problems, err.Error())
		}
	}
	put("store.put_s", putS)
	put("store.bytes", float64(putBytes))

	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	var tw []float64
	for _, t := range tpass {
		tw = append(tw, t.wall)
	}
	env["passes"], env["pass_wall_s"], env["traced_wall_s"], env["trace_file"] = len(runs), uw, tw, path
	if err := e.tr.writeChrome(path, env); err != nil {
		problems = append(problems, err.Error())
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	rep.Correct = rep.Failed == 0 && len(problems) == 0
	return rep
}

// workCounters are the traced pass's deterministic work counts; they
// must repeat exactly from pass to pass and run to run.
type workCounters struct {
	traces, dupBlocks       int
	dynInstrs, icacheMisses int64
	procs, proved, bounded  int
}

func counters(e *reenact) workCounters {
	c := workCounters{
		traces:    e.form.Traces,
		dupBlocks: e.form.TailDups + e.form.EnlargeCopies,
		procs:     e.valid.Procs,
		proved:    e.valid.Proved,
		bounded:   e.valid.Bounded,
	}
	for _, o := range e.pr.meas {
		c.dynInstrs += o.DynInstrs
		c.icacheMisses += o.CacheMisses
	}
	return c
}

// timePublish re-publishes every artifact of the populated store into
// an empty one through the claim → publish path the runner's disk tier
// takes, and returns the median time of three such sweeps and the
// published payload bytes.
func timePublish(src, dst string) (float64, int64, error) {
	st, err := store.Open(src, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	entries, err := st.List()
	if err != nil {
		return 0, 0, err
	}
	type artifact struct {
		kind, key string
		payload   []byte
	}
	var arts []artifact
	var total int64
	for _, en := range entries {
		p, ok := st.Get(en.Kind, en.Key)
		if !ok {
			return 0, 0, fmt.Errorf("store entry %s/%s unreadable", en.Kind, en.Key)
		}
		arts = append(arts, artifact{en.Kind, en.Key, p})
		total += int64(len(p))
	}
	var times []float64
	for i := 0; i < 3; i++ {
		if err := os.RemoveAll(dst); err != nil {
			return 0, 0, err
		}
		out, err := store.Open(dst, store.Options{})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for _, a := range arts {
			acq, err := out.Acquire(a.kind, a.key)
			if err != nil || acq.Claim == nil {
				return 0, 0, fmt.Errorf("claiming %s/%s in an empty store failed: %v", a.kind, a.key, err)
			}
			if err := acq.Claim.Publish(a.payload); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), total, os.RemoveAll(dst)
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_norm"), strings.HasPrefix(name, "code_growth"):
		return "ratio"
	case name == "store.bytes":
		return "bytes"
	}
	return "count"
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// environment records what the numbers were measured on.
func environment(cfg config) map[string]any {
	commit := "unknown"
	if rev, ok := vcsRevision(); ok {
		commit = rev
	}
	return map[string]any{
		"workload":      cfg.workload.name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"benchmarks":    len(cfg.names),
	}
}
