// Command potluck-cli is a hand-driven client for a running potluckd,
// exposing the register()/lookup()/put() API of §4.3 from the shell.
//
// Usage:
//
//	potluck-cli [-network unix] [-addr /tmp/potluck.sock] [-app cli] <cmd> ...
//
//	potluck-cli register <function> <keytype>[:<index>][,<keytype>[:<index>]...]
//	potluck-cli lookup   <function> <keytype> <k1,k2,...>
//	potluck-cli put      <function> <keytype> <k1,k2,...> <value> [cost]
//	potluck-cli stats
//	potluck-cli -admin http://127.0.0.1:9744 stats
//	potluck-cli -admin http://127.0.0.1:9744 whatif
//	potluck-cli -admin http://127.0.0.1:9744 explain <function> [n]
//	potluck-cli -admin http://127.0.0.1:9744 explain -trace <hexid>
//
// With -admin, stats is fetched from the daemon's HTTP observability
// endpoint (/stats) instead of the wire protocol, and includes the
// per-function series and latency quantiles the binary protocol does
// not carry. explain requires -admin: it renders the daemon's last n
// retained lookup decisions for a function (/debug/explain) — distance
// vs threshold, the live tuner window, and what would have flipped each
// outcome. explain -trace renders every retained span carrying one
// trace ID (/trace/spans?trace=), which for a mesh-forwarded lookup
// shows all hops — the server dispatch, the local core probe, and the
// mesh fan-out with the answering peer — under a single ID.
//
// whatif (also -admin only) renders the counterfactual profiler's
// report (/whatif): the miss-ratio curve across ghost capacities and
// policies, the per-series threshold sweeps, and the predicted-vs-
// measured hit rates. Requires the daemon to run with -whatif.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/vec"
	"repro/internal/whatif"
)

func main() {
	var (
		network = flag.String("network", "unix", `transport: "unix" or "tcp"`)
		addr    = flag.String("addr", "/tmp/potluck.sock", "service address")
		app     = flag.String("app", "cli", "application name")
		admin   = flag.String("admin", "", "daemon admin endpoint base URL (stats command only)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	if args[0] == "stats" && *admin != "" {
		if err := adminStats(*admin); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "whatif" {
		if *admin == "" {
			fail(fmt.Errorf("whatif requires -admin (the daemon's HTTP observability endpoint)"))
		}
		if err := adminWhatIf(*admin); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "explain" {
		if *admin == "" {
			fail(fmt.Errorf("explain requires -admin (the daemon's HTTP observability endpoint)"))
		}
		if len(args) == 3 && args[1] == "-trace" {
			if err := adminTrace(*admin, args[2]); err != nil {
				fail(err)
			}
			return
		}
		if len(args) != 2 && len(args) != 3 {
			usage()
		}
		n := 0
		if len(args) == 3 {
			v, err := strconv.Atoi(args[2])
			if err != nil {
				fail(fmt.Errorf("explain count: %w", err))
			}
			n = v
		}
		if err := adminExplain(*admin, args[1], n); err != nil {
			fail(err)
		}
		return
	}

	cl, err := service.Dial(*network, *addr, *app)
	if err != nil {
		fail(err)
	}
	defer cl.Close()

	switch args[0] {
	case "register":
		if len(args) != 3 {
			usage()
		}
		var defs []service.KeyTypeDef
		for _, name := range strings.Split(args[2], ",") {
			// "<name>:<index>" selects an index kind (kdtree, linear,
			// lsh, treemap, hash, hnsw, ivf, hnsw-pq); bare names take
			// the server default.
			def := service.KeyTypeDef{Name: name}
			if i := strings.IndexByte(name, ':'); i >= 0 {
				def.Name, def.Index = name[:i], name[i+1:]
			}
			defs = append(defs, def)
		}
		if err := cl.Register(args[1], defs...); err != nil {
			fail(err)
		}
		fmt.Println("registered")
	case "lookup":
		if len(args) != 4 {
			usage()
		}
		key, err := parseKey(args[3])
		if err != nil {
			fail(err)
		}
		res, err := cl.Lookup(args[1], args[2], key)
		if err != nil {
			fail(err)
		}
		switch {
		case res.Hit:
			fmt.Printf("hit value=%q distance=%.6g threshold=%.6g trace=%s\n",
				res.Value, res.Distance, res.Threshold, res.Trace)
		case res.Dropout:
			fmt.Printf("miss (dropout) trace=%s\n", res.Trace)
		default:
			fmt.Printf("miss distance=%.6g threshold=%.6g trace=%s\n",
				res.Distance, res.Threshold, res.Trace)
		}
	case "put":
		if len(args) != 5 && len(args) != 6 {
			usage()
		}
		key, err := parseKey(args[3])
		if err != nil {
			fail(err)
		}
		var opts service.PutOptions
		if len(args) == 6 {
			cost, err := time.ParseDuration(args[5])
			if err != nil {
				fail(err)
			}
			opts.Cost = cost
		}
		id, err := cl.Put(args[1], map[string]vec.Vector{args[2]: key}, []byte(args[4]), opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("stored id=%d\n", id)
	case "stats":
		st, err := cl.Stats()
		if err != nil {
			fail(err)
		}
		fmt.Printf("entries=%d bytes=%d hits=%d misses=%d dropouts=%d puts=%d evictions=%d expirations=%d saved=%s\n",
			st.Entries, st.Bytes, st.Hits, st.Misses, st.Dropouts, st.Puts,
			st.Evictions, st.Expirations, time.Duration(st.SavedComputeN))
	default:
		usage()
	}
}

// adminStats fetches the daemon's /stats JSON and renders the global
// counters plus the per-function series table.
func adminStats(base string) error {
	url := strings.TrimSuffix(base, "/") + "/stats"
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var st service.AdminStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	printAdminStats(os.Stdout, st)
	return nil
}

func printAdminStats(w *os.File, st service.AdminStats) {
	fmt.Fprintf(w, "uptime      %s\n", (time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second))
	fmt.Fprintf(w, "entries     %d (%d bytes)\n", st.Entries, st.Bytes)
	fmt.Fprintf(w, "lookups     %d hits / %d misses / %d dropouts (hit rate %.1f%%)\n",
		st.Hits, st.Misses, st.Dropouts, st.HitRate*100)
	fmt.Fprintf(w, "puts        %d accepted / %d rejected\n", st.Puts, st.RejectedPuts)
	fmt.Fprintf(w, "removed     %d evicted / %d expired / %d invalidated\n",
		st.Evictions, st.Expirations, st.Invalidations)
	fmt.Fprintf(w, "saved       %s of computation\n", time.Duration(st.SavedSeconds*float64(time.Second)).Round(time.Millisecond))
	if len(st.Functions) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-16s %-12s %-9s %8s %8s %8s %10s %9s %9s %9s\n",
		"FUNCTION", "KEYTYPE", "INDEX", "HITS", "MISSES", "DROPOUT", "THRESHOLD", "P50", "P99", "MAX")
	for _, fn := range st.Functions {
		for _, kt := range fn.KeyTypes {
			p50, p99, max := "-", "-", "-"
			if kt.Latency != nil && kt.Latency.Count > 0 {
				p50 = fmtLatency(kt.Latency.P50)
				p99 = fmtLatency(kt.Latency.P99)
				max = fmtLatency(kt.Latency.Max)
			}
			fmt.Fprintf(w, "%-16s %-12s %-9s %8d %8d %8d %10.4g %9s %9s %9s\n",
				fn.Function, kt.KeyType, kt.IndexKind, kt.Hits, kt.Misses, kt.Dropouts,
				kt.Threshold, p50, p99, max)
		}
	}
}

// adminExplain fetches /debug/explain for fn and renders the decision
// log: per-key-type live context first, then the retained decisions
// newest-first with the flip explanation for each.
func adminExplain(base, fn string, n int) error {
	u := strings.TrimSuffix(base, "/") + "/debug/explain?fn=" + url.QueryEscape(fn)
	if n > 0 {
		u += "&n=" + strconv.Itoa(n)
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	var rep core.ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("decode %s: %w", u, err)
	}
	printExplain(os.Stdout, rep)
	return nil
}

func printExplain(w *os.File, rep core.ExplainReport) {
	fmt.Fprintf(w, "function %s: %d retained decisions\n", rep.Function, rep.Recorded)
	for _, kt := range rep.KeyTypes {
		fmt.Fprintf(w, "  keytype %-12s index=%s(len=%d) hits=%d misses=%d dropouts=%d threshold=%.6g tuner(puts=%d active=%v tighten=%d loosen=%d)\n",
			kt.KeyType, kt.IndexKind, kt.IndexLen, kt.Hits, kt.Misses, kt.Dropouts,
			kt.Tuner.Threshold, kt.Tuner.Puts, kt.Tuner.Active,
			kt.Tuner.Tightenings, kt.Tuner.Loosenings)
	}
	if len(rep.Decisions) == 0 {
		fmt.Fprintln(w, "no decisions retained yet (traced or sampled lookups populate this)")
		return
	}
	fmt.Fprintln(w, "decisions (newest first):")
	for _, d := range rep.Decisions {
		probes := "-"
		if d.Probes >= 0 {
			probes = strconv.Itoa(d.Probes)
		}
		fmt.Fprintf(w, "  %s %-8s kt=%-12s %8s probes=%-5s %s\n",
			d.Trace, d.Outcome, d.KeyType,
			time.Duration(d.DurationNs).Round(time.Microsecond), probes, d.Flip)
	}
}

// adminWhatIf fetches the counterfactual profiler's /whatif report and
// renders its three sections: miss-ratio curve, threshold sweeps, and
// predicted-vs-measured.
func adminWhatIf(base string) error {
	u := strings.TrimSuffix(base, "/") + "/whatif"
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("GET %s: 404 — the daemon is running without -whatif", u)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	var rep whatif.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("decode %s: %w", u, err)
	}
	printWhatIf(os.Stdout, rep)
	return nil
}

func printWhatIf(w *os.File, rep whatif.Report) {
	fmt.Fprintf(w, "sample rate %g (scale ×%g)\n", rep.Rate, rep.Scale)
	fmt.Fprintf(w, "sampled     %d lookups / %d puts", rep.SampledLookups, rep.SampledPuts)
	if rep.RingDrops > 0 {
		fmt.Fprintf(w, " (%d dropped: ring backed up)", rep.RingDrops)
	}
	if rep.SeriesOverflow > 0 {
		fmt.Fprintf(w, " (%d beyond series bound)", rep.SeriesOverflow)
	}
	fmt.Fprintln(w)

	if rep.GhostsDisabled {
		fmt.Fprintln(w, "\nmiss-ratio curve: disabled (cache has no capacity bound)")
	} else if len(rep.MissRatioCurve) > 0 {
		fmt.Fprintf(w, "\nmiss-ratio curve (capacity %d entries / %d bytes):\n",
			rep.CapacityEntries, rep.CapacityBytes)
		fmt.Fprintf(w, "  %6s %-12s %9s %9s %10s %9s\n",
			"MULT", "POLICY", "HITS", "MISSES", "EVICTIONS", "HITRATE")
		for _, pt := range rep.MissRatioCurve {
			fmt.Fprintf(w, "  %5g× %-12s %9d %9d %10d %8.1f%%\n",
				pt.Mult, pt.Policy, pt.Hits, pt.Misses, pt.Evictions, pt.HitRate*100)
		}
	}

	for _, sw := range rep.ThresholdSweeps {
		fmt.Fprintf(w, "\nthreshold sweep %s/%s (%d probes, %d with no neighbour):\n",
			sw.Function, sw.KeyType, sw.Total, sw.NoNeighbor)
		for _, pt := range sw.Points {
			fmt.Fprintf(w, "  %5g×θ %9d hits  %6.1f%%\n", pt.Mult, pt.Hits, pt.HitRate*100)
		}
	}

	if len(rep.Predictions) > 0 {
		fmt.Fprintf(w, "\npredicted vs measured (tolerance %.2f):\n", rep.Tolerance)
		fmt.Fprintf(w, "  %-16s %-12s %8s %9s %9s %9s %s\n",
			"FUNCTION", "KEYTYPE", "SAMPLES", "PREDICT", "MEASURE", "DIVERGE", "")
		for _, pr := range rep.Predictions {
			flag := ""
			if pr.Diverged {
				flag = "DIVERGED"
			}
			fmt.Fprintf(w, "  %-16s %-12s %8d %8.1f%% %8.1f%% %9.3f %s\n",
				pr.Function, pr.KeyType, pr.Samples,
				pr.Predicted*100, pr.Measured*100, pr.Divergence, flag)
		}
		fmt.Fprintf(w, "max divergence %.3f\n", rep.MaxDivergence)
	}
}

// adminTrace fetches every retained span carrying one trace ID from
// /trace/spans and renders them oldest-first, one line per hop. A
// lookup answered by a mesh peer produces (at least) a server span,
// a core span, and a mesh span whose "peer" stage names the answering
// node — all under the same ID, which is the whole point of printing
// them together.
func adminTrace(base, hexID string) error {
	id, err := telemetry.ParseTraceID(hexID)
	if err != nil {
		return err
	}
	u := strings.TrimSuffix(base, "/") + "/trace/spans?trace=" + url.QueryEscape(id.String())
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	var body struct {
		Recorded uint64           `json:"recorded"`
		Capacity int              `json:"capacity"`
		Spans    []telemetry.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("decode %s: %w", u, err)
	}
	printTrace(os.Stdout, id, body.Spans)
	return nil
}

func printTrace(w *os.File, id telemetry.TraceID, spans []telemetry.Span) {
	if len(spans) == 0 {
		fmt.Fprintf(w, "trace %s: no retained spans (the span ring may have rotated, or the lookup was not traced)\n", id)
		return
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Seq < spans[j].Seq
	})
	fmt.Fprintf(w, "trace %s: %d spans\n", id, len(spans))
	base := spans[0].Start
	for _, sp := range spans {
		loc := sp.Function
		if sp.KeyType != "" {
			loc += "/" + sp.KeyType
		}
		fmt.Fprintf(w, "  +%-9s %-8s %-8s %-24s %8s",
			time.Duration(sp.Start-base).Round(time.Microsecond),
			sp.Layer, sp.Outcome, loc,
			time.Duration(sp.DurationNs).Round(time.Microsecond))
		if sp.Outcome == "hit" {
			fmt.Fprintf(w, "  distance=%.6g threshold=%.6g", sp.Distance, sp.Threshold)
		}
		if sp.Err != "" {
			fmt.Fprintf(w, "  err=%q", sp.Err)
		}
		fmt.Fprintln(w)
		for _, st := range sp.Stages {
			detail := ""
			if st.Detail != "" {
				detail = "  " + st.Detail
			}
			fmt.Fprintf(w, "    · %-12s %8s%s\n",
				st.Name, time.Duration(st.DurationNs).Round(time.Microsecond), detail)
		}
	}
}

func fmtLatency(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

func parseKey(s string) (vec.Vector, error) {
	parts := strings.Split(s, ",")
	key := make(vec.Vector, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("key component %d: %w", i, err)
		}
		key[i] = v
	}
	return key, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: potluck-cli [flags] <command>
  register <function> <keytype>[:<index>][,<keytype>[:<index>]...]
  lookup   <function> <keytype> <k1,k2,...>
  put      <function> <keytype> <k1,k2,...> <value> [cost]
  stats    (with -admin URL: fetch the rich JSON stats over HTTP)
  whatif   (requires -admin URL: render the counterfactual profiler's
           miss-ratio curve, threshold sweeps, predicted-vs-measured)
  explain  <function> [n]   (requires -admin URL: render the daemon's
           last n retained lookup decisions and what would flip them)
  explain  -trace <hexid>   (requires -admin URL: render every retained
           span for one trace ID — all hops of a mesh-forwarded lookup)`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
