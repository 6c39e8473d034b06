// Command bench is the repository's benchmark: it spawns the real
// cmd/potluckd as a child on a Unix socket, drives four named workloads
// generated from -seed, prints every metric by name with its unit, checks
// the outputs, and exits non-zero when a check fails. README.md explains
// the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		cfg      config
		workload = flag.String("workload", "", "run one workload: svc-read, write-evict, index-scale or app-vision (default: all four)")
		trace    = flag.Int("trace", 0, "1 = the traced run, which prints the per-layer metrics and writes a span file")
		repeat   = flag.Int("repeat", 0, "run two sets of N untraced runs per workload and print each metric's spread against its bound")
		genSpec  = flag.Bool("print-spec", false, "print BENCHMARK.json as this program defines it, and exit")
	)
	flag.StringVar(&cfg.daemonBin, "daemon", "", "path to a built potluckd (default: built with go build into -workdir)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/tmp", "directory for sockets and data; keep it short and relative, a Unix socket path holds 108 bytes")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for span files")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: key streams, popularity draws and op mixes all come from it")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of one measured window")
	flag.BoolVar(&cfg.small, "short", false, "smoke test: small inputs, one set-up, 2 s windows")
	flag.Parse()
	if cfg.small {
		cfg.seconds = 2
	}
	if *genSpec {
		os.Stdout.Write(specJSON())
		return
	}

	// Any exit path kills and reaps the children.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		removeRunDirs(cfg.workdir)
		os.Exit(130)
	}()
	code := run(cfg, *workload, *trace == 1, *repeat)
	killAllChildren()
	os.Exit(code)
}

func run(cfg config, name string, traced bool, repeat int) int {
	if cfg.daemonBin == "" {
		bin, err := buildDaemon(cfg.workdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		cfg.daemonBin = bin
	}
	ws := allWorkloads()
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		ws = []workload{w}
	}
	if repeat > 0 {
		return runRepeat(cfg, ws, repeat)
	}
	// One named workload is the driver's form: one run, traced or not, and
	// one JSON object on the last line. Without a name every workload runs
	// untraced, and with -trace 1 traced as well.
	modes := []bool{traced}
	if name == "" && traced {
		modes = []bool{false, true}
	}
	code := 0
	for _, w := range ws {
		for _, mode := range modes {
			res, err := runOne(cfg, w, mode)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name(), err)
				return 1
			}
			res.print(os.Stdout)
			if name != "" {
				os.Stdout.Write(append(res.jsonLine(), '\n'))
			}
			if !res.correct {
				code = 1
			}
		}
	}
	if name == "" {
		fmt.Printf("\n%s\n", map[int]string{0: "PASS: every check held", 1: "FAIL: a check was violated"}[code])
	}
	return code
}

// result is one run as the caller sees it.
type result struct {
	workload  string
	traced    bool
	seed      int64
	defs      []metricDef
	m         *values
	extra     []metricDef // printed, not part of the JSON line
	correct   bool
	violated  []string
	attempted int
	failed    int
	noisy     bool
	wall      time.Duration
}

func runOne(cfg config, w workload, traced bool) (*result, error) {
	start := time.Now()
	res := &result{workload: w.name(), traced: traced, seed: cfg.seed}
	var r *report
	var err error
	if traced {
		res.defs = perLayer()
		r, res.m, err = runTraced(cfg, w)
	} else {
		res.defs, res.extra = endToEnd, demoted
		if r, err = runUntraced(cfg, w, nil); err == nil {
			res.m = r.endToEndValues()
		}
	}
	if err != nil {
		return nil, err
	}
	sent := r.measured()
	res.attempted, res.failed = sent.lookups+sent.puts, sent.failed
	res.violated = r.violated
	res.noisy = calibSpread(r.calibNs) > 0.10
	res.m.set("host.calib_ns", median(r.calibNs))
	res.m.set("host.calib_spread_pct", 100*calibSpread(r.calibNs))
	for _, d := range res.defs {
		if v, ok := res.m.v[d.name]; !ok {
			res.violated = append(res.violated, "metric "+d.name+" was not measured")
		} else if !traced && v == 0 {
			res.violated = append(res.violated, "end-to-end metric "+d.name+" is zero")
		}
	}
	res.correct = len(res.violated) == 0
	res.wall = time.Since(start)
	return res, nil
}

func note(t timing, at float64) string {
	return fmt.Sprintf("n=%d p%g", t.n, at*100)
}

func (res *result) print(out *os.File) {
	kind := "end-to-end"
	if res.traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(out, "\n== %s  seed %d  %s  wall %.1fs  noisy: %v\n", res.workload, res.seed, kind, res.wall.Seconds(), res.noisy)
	for _, d := range append(append([]metricDef(nil), res.defs...), res.extra...) {
		v, ok := res.m.v[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-6s %s\n", d.name, v, d.unit, res.m.notes[d.name])
	}
	if !res.traced {
		fmt.Fprintf(out, "  %-34s %14.6g %-6s\n", "host.calib_spread_pct", res.m.v["host.calib_spread_pct"], "%")
	}
	fmt.Fprintf(out, "  attempted %d  failed %d  correct %v\n", res.attempted, res.failed, res.correct)
	for _, v := range res.violated {
		fmt.Fprintf(out, "  VIOLATED: %s\n", v)
	}
}

func (res *result) jsonLine() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(res.defs))
	for _, d := range res.defs {
		metrics[d.name] = mv{res.m.v[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		panic(err) // floats and strings always marshal
	}
	return b
}

// buildDaemon compiles cmd/potluckd into dir. It works from the bench
// module's directory, where `go run .` and `go test` run; run.sh builds
// the daemon itself and passes -daemon.
func buildDaemon(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "potluckd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/potluckd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/potluckd (run from the bench directory, or pass -daemon): %v\n%s", err, out)
	}
	return bin, nil
}

// runRepeat is the acceptance test run by hand: two sets of n untraced
// runs per workload, each run on its own seed, the second set on seeds
// the first never saw. For every end-to-end metric it prints each set's
// median and quartiles, the spread (q3-q1 over the median) against the
// metric's bound, and how far the second median is worse than the first.
func runRepeat(cfg config, ws []workload, n int) int {
	start := time.Now()
	code := 0
	for _, w := range ws {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				c := cfg
				c.seed = cfg.seed + int64(set*n+i)
				res, err := runOne(c, w, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name(), c.seed, err)
					return 1
				}
				if !res.correct {
					res.print(os.Stdout)
					code = 1
				}
				for name, v := range res.m.v {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		fmt.Printf("\n== %s: two sets of %d runs, seeds %d..%d\n", w.name(), n, cfg.seed, cfg.seed+int64(2*n)-1)
		fmt.Printf("  %-22s %3s %12s %12s %12s %8s %6s %8s  %s\n", "metric", "set", "median", "q1", "q3", "spread", "bound", "worse", "verdict")
		for _, d := range endToEnd {
			var med [2]float64
			for set := range sets {
				v := sets[set][d.name]
				q1, q3 := quartiles(v)
				med[set] = median(v)
				worse, verdict := "", "ok"
				sp := spread(v)
				if sp > d.bound {
					verdict = "SPREAD OVER BOUND"
					code = 1
				} else if sp > d.bound/3 {
					verdict = "spread over a third of the bound"
				}
				if set == 1 && med[0] != 0 {
					w := (med[1] - med[0]) / med[0]
					if d.better == "higher" {
						w = -w
					}
					worse = fmt.Sprintf("%+.3f", w)
					if w > d.bound {
						verdict = "SECOND MEDIAN WORSE THAN BOUND"
						code = 1
					}
				}
				fmt.Printf("  %-22s %3d %12.6g %12.6g %12.6g %8.4f %6.2f %8s  %s\n", d.name, set+1, med[set], q1, q3, sp, d.bound, worse, verdict)
			}
		}
		var rest []string
		for name := range sets[0] {
			rest = append(rest, name)
		}
		sort.Strings(rest)
		for _, name := range rest {
			if len(name) > 4 && name[:4] == "e2e." {
				fmt.Printf("  %-22s   - %12.6g %33s %.4f (not bounded)\n", name, median(sets[0][name]), "spread", spread(sets[0][name]))
			}
		}
	}
	fmt.Printf("\nwall time %.0fs\n", time.Since(start).Seconds())
	return code
}

// runSeconds is the window the driver passes as --seconds.
const runSeconds = 16

// specJSON renders BENCHMARK.json from the lists this program measures,
// so the file and the program cannot drift apart: TestSpecMatches fails
// when the file at the repository root differs.
func specJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range allWorkloads() {
		spec.Workloads = append(spec.Workloads, wl{w.name(), w.why()})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer() {
		spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return append(b, '\n')
}
