package whatif

// sweepSeries accumulates the threshold sweep for one (function,
// keyType): each sampled probe's nearest-neighbour distance — already
// computed on the real lookup path — is replayed against a grid of
// threshold multipliers, so "what would the hit rate be at 2× the
// current threshold" costs one comparison per grid point, not a second
// index query. The lookup searches only within core.SearchRadius times
// the threshold, so the counts are exact up to that multiple (the
// default grid's largest) and, past it, count only the neighbours
// within it. Ratios of sampled counts are unbiased under spatial
// sampling, so no unscaling is needed.
type sweepSeries struct {
	total      uint64   // sampled non-dropout probes
	noNeighbor uint64   // probes that found no entry within the search radius (dist < 0): none within core.SearchRadius·threshold, or, at threshold 0, an empty index
	hits       []uint64 // hits[i]: probes with dist ≤ grid[i]·threshold
}

func newSweepSeries(gridLen int) *sweepSeries {
	return &sweepSeries{hits: make([]uint64, gridLen)}
}

// observe replays one probe against the grid. dist is the NN distance
// within the search radius (-1 when no entry lay within it); threshold
// is the live tuner threshold at probe time, so the sweep tracks the
// tuner rather than a stale constant.
func (s *sweepSeries) observe(grid []float64, dist, threshold float64) {
	s.total++
	if dist < 0 {
		s.noNeighbor++
		return
	}
	for i, m := range grid {
		if dist <= m*threshold {
			s.hits[i]++
		}
	}
}
