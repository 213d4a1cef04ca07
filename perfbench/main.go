// Command perfbench is the repository benchmark: it drives a freshly
// started `nvrel serve` daemon over HTTP (serve-hot, serve-cold) or runs
// every experiment in a subprocess (run-all), checks every answer, and
// prints each metric by name and unit, ending with one JSON line. With
// --trace 1 it instead measures per-layer numbers from its own spans
// around calls into the program's packages and from the daemon's
// counters. Run it through run.sh, which builds both binaries.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nvrel    string // path of the nvrel binary under test
	spanFile string // where a traced run writes its spans
	root     string // repository checkout the binaries were built from
	commit   string
}

// metric is one entry of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics are the end-to-end metrics in BENCHMARK.json, which every
// workload reports under its own definition (see README.md). The other
// end-to-end metrics are printed, not gated: on a shared 2-CPU host their
// run-to-run spread is wider than any bound a regression gate could use.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
}

// benchLayers are the per-layer metrics in BENCHMARK.json: the ones every
// workload measures (a layer a workload bypasses reads 0).
var benchLayers = []string{
	"servecache.hit_ratio", "servecache.evict", "parallel.pool.runs_per_miss",
	"nvp.cache.miss", "petri.restamp", "petri.explore.states", "warm.seeded_ratio",
	"mrgp.cycles_per_solve", "mrgp.solve.routed_sparse", "mrgp.solve.routed_dense",
	"linalg.unif.terms_per_solve", "linalg.arena.hit_ratio", "parallel.pool.utilization",
	"des.events", "percept.replications", "events.dropped",
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runConfig
	var trace int
	var childRunAllMode bool
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&cfg.workload, "workload", "", "serve-hot, serve-cold or run-all")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fl.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fl.IntVar(&trace, "trace", 0, "1: per-layer traced run instead of end-to-end")
	fl.StringVar(&cfg.nvrel, "nvrel", "", "nvrel binary under test")
	fl.StringVar(&cfg.root, "root", ".", "repository checkout")
	fl.StringVar(&cfg.commit, "commit", "unknown", "source revision, recorded in the manifest")
	outDir := fl.String("out", ".", "directory for span files")
	fl.BoolVar(&childRunAllMode, "child-runall", false, "internal: be the run-all subprocess")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if childRunAllMode {
		if err := childRunAll(cfg.seconds, trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench run-all child:", err)
			return 1
		}
		return 0
	}
	cfg.trace = trace == 1
	cfg.spanFile = filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))

	rep := &report{workload: cfg.workload}
	var res result
	var err error
	switch cfg.workload {
	case "serve-hot":
		var r *hotRun
		if r, err = serveHot(context.Background(), cfg); err == nil {
			res = rep.hot(cfg, r)
		}
	case "serve-cold":
		var r *coldRun
		if r, err = serveCold(context.Background(), cfg); err == nil {
			res = rep.cold(cfg, r)
		}
	case "run-all":
		var r *runAllRun
		if r, err = runAll(cfg); err == nil {
			res = rep.runAll(cfg, r)
		}
	default:
		err = fmt.Errorf("unknown --workload %q (want serve-hot, serve-cold or run-all)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.manifest(cfg)
	rep.print(os.Stdout)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// finish fills the JSON line: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *report) finish(cfg runConfig, attempted int, wrong []string, e2e map[string]float64, layers map[string]layerValue) result {
	res := result{Correct: len(wrong) == 0, Attempted: attempted, Failed: len(wrong), Metrics: map[string]metric{}}
	r.wrong = wrong
	r.failFrac = ratio{float64(len(wrong)), float64(attempted)}
	if cfg.trace {
		r.layers = layers
		for _, name := range benchLayers {
			lv, ok := layers[name]
			if !ok {
				lv = layerValue{unit: "count", base: "layer not on this workload's path"}
				for _, lm := range layerTable {
					if lm.name == name {
						lv.unit = lm.unit
					}
				}
				layers[name] = lv
			}
			res.Metrics[name] = metric{lv.value, lv.unit}
		}
		return res
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{e2e[m.name], m.unit}
	}
	return res
}

// sourceDigest hashes every Go source and module file of the checkout, a
// revision stamp that works where there is no git metadata.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func nproc() string {
	out, err := exec.Command("nproc").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *report) manifest(cfg runConfig) {
	r.man["commit"] = cfg.commit
	r.man["source_digest"] = sourceDigest(cfg.root)
	r.man["go_version"] = runtime.Version()
	r.man["num_cpu"] = runtime.NumCPU()
	r.man["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.man["nproc"] = nproc()
	r.man["workload"] = cfg.workload
	r.man["seed"] = cfg.seed
	r.man["seconds"] = cfg.seconds
	r.man["traced"] = cfg.trace
	r.man["connections"] = conns
}
