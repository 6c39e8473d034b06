package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/internal/index"
	"repro/internal/vec"
)

func init() {
	register(Experiment{
		ID:    "table2scale",
		Title: "Index scaling sweep: probes, latency, recall, and key memory from 10^3 to 10^6 entries",
		Paper: "extends Table 2 beyond paper scale (ROADMAP item 3): linear/KD probe work grows " +
			"linearly with the entry count while HNSW/IVF stay sub-linear (>=5x fewer probes at 10^6) " +
			"at recall@1 >= 0.95, and HNSW-PQ's one-byte-a-dimension codes cut key bytes/entry ~8x",
		Run: runTable2Scale,
	})
}

// sweepScales are the entry counts of the sweep. POTLUCK_SWEEP_MAX caps
// the sweep (CI smoke runs at 10^3; the recorded curve uses the full
// range).
func sweepScales() []int {
	scales := []int{1_000, 10_000, 100_000, 1_000_000}
	max := 1_000_000
	if s := os.Getenv("POTLUCK_SWEEP_MAX"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			max = v
		}
	}
	out := scales[:0]
	for _, s := range scales {
		if s <= max {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = append(out, max)
	}
	return out
}

// runTable2Scale measures, per (entry count, index kind): average lookup
// latency, probes per query (ProbeStats), recall@1 against the linear
// ground truth, and key-store bytes per entry. Every kind borrows the
// keys it is given, as in the cache core, where the entry owns them:
// HNSW-PQ's bytes/entry is its codes and codebooks.
func runTable2Scale(w io.Writer) error {
	const (
		dim     = 16
		queries = 100
	)
	type kindCfg struct {
		kind index.Kind
		// maxEntries bounds the scales this kind is measured at (graph
		// construction cost, not query cost, is the limiter).
		maxEntries int
	}
	kinds := []kindCfg{
		{index.KindLinear, 1_000_000},
		{index.KindKDTree, 1_000_000},
		{index.KindLSH, 100_000},
		{index.KindHNSW, 100_000},
		{index.KindIVF, 1_000_000},
		{index.KindHNSWPQ, 100_000},
	}
	var rows [][]string
	for _, n := range sweepScales() {
		rng := rand.New(rand.NewSource(int64(n)))
		// Clustered keys: the correlated cross-application feeds the
		// paper's workloads exhibit (~n/64 points per cluster).
		centers := make([]vec.Vector, 256)
		for i := range centers {
			centers[i] = make(vec.Vector, dim)
			for d := range centers[i] {
				centers[i][d] = rng.NormFloat64() * 100
			}
		}
		keys := make([]vec.Vector, n)
		for i := range keys {
			c := centers[rng.Intn(len(centers))]
			v := make(vec.Vector, dim)
			for d := range v {
				v[d] = c[d] + rng.NormFloat64()*2
			}
			keys[i] = v
		}
		qs := make([]vec.Vector, queries)
		for i := range qs {
			q := keys[rng.Intn(n)].Clone()
			for d := range q {
				q[d] += rng.NormFloat64() * 0.5
			}
			qs[i] = q
		}
		// Linear ground truth (also the first measured row).
		truth := make([]float64, queries)
		for _, kc := range kinds {
			if n > kc.maxEntries {
				rows = append(rows, []string{
					fmt.Sprintf("%d", n), string(kc.kind), "-", "-", "-", "-", "-",
				})
				continue
			}
			idx, err := index.New(kc.kind, vec.EuclideanMetric{}, dim)
			if err != nil {
				return err
			}
			buildStart := time.Now()
			for i, k := range keys {
				if err := idx.Insert(index.ID(i), k); err != nil {
					return err
				}
			}
			build := time.Since(buildStart)
			before := idx.ProbeStats()
			start := time.Now()
			results := make([]index.Neighbor, queries)
			for i, q := range qs {
				nb, ok := idx.Nearest(q)
				if !ok {
					return fmt.Errorf("table2scale: %s returned no result", kc.kind)
				}
				results[i] = nb
			}
			perQuery := time.Since(start) / queries
			after := idx.ProbeStats()
			probes := float64(after.Probes-before.Probes) / float64(after.Queries-before.Queries)
			hits := 0
			for i, nb := range results {
				if kc.kind == index.KindLinear {
					truth[i] = nb.Dist
				}
				if nb.Dist <= truth[i]+1e-9 {
					hits++
				}
			}
			recall := float64(hits) / queries
			keyBytes := fmt.Sprintf("%d", 8*dim)
			if mr, ok := idx.(index.MemoryReporter); ok {
				keyBytes = fmt.Sprintf("%.1f", float64(mr.KeyBytes())/float64(n))
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", n),
				string(kc.kind),
				fmt.Sprintf("%.1f", float64(perQuery)/float64(time.Microsecond)),
				fmt.Sprintf("%.0f", probes),
				fmt.Sprintf("%.2f", recall),
				keyBytes,
				fmt.Sprintf("%.1f", build.Seconds()),
			})
		}
	}
	table(w, []string{"entries", "kind", "us/query", "probes/query", "recall@1", "key B/entry", "build (s)"}, rows)
	return nil
}
