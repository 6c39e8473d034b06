package core

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Explainability: /debug/explain renders the last N lookup decisions of
// a function from the retained spans, alongside the live tuner window
// per key type, answering "why was this a miss at distance d under
// threshold T, and what would have flipped it". This is read-side only:
// it consumes what the span recorder already retained, never touching a
// data-path lock.

// ExplainDecision is one retained lookup decision, rendered.
type ExplainDecision struct {
	Trace      telemetry.TraceID `json:"trace"`
	KeyType    string            `json:"keyType"`
	Outcome    string            `json:"outcome"`
	Distance   float64           `json:"distance"`
	Threshold  float64           `json:"threshold"`
	DurationNs int64             `json:"durationNs"`
	// Probes is the index scan count (-1 unmeasured).
	Probes int `json:"probes"`
	// Flip explains the decision and states what would have changed its
	// outcome (e.g. "distance 0.52 > threshold 0.1; a threshold above
	// 0.52 would have made this a hit").
	Flip string `json:"flip"`
}

// ExplainKeyType is the live per-key-type context decisions ran under.
type ExplainKeyType struct {
	KeyType   string     `json:"keyType"`
	IndexKind string     `json:"indexKind"`
	IndexLen  int        `json:"indexLen"`
	Hits      int64      `json:"hits"`
	Misses    int64      `json:"misses"`
	Dropouts  int64      `json:"dropouts"`
	Tuner     TunerStats `json:"tuner"`
}

// ExplainReport is the /debug/explain payload for one function.
type ExplainReport struct {
	Function string `json:"function"`
	// Recorded is how many lookups against this function were retained
	// as spans (the decisions below are the most recent of those).
	Recorded  int               `json:"recorded"`
	KeyTypes  []ExplainKeyType  `json:"keyTypes"`
	Decisions []ExplainDecision `json:"decisions"`
}

// Explain builds the decision report for fn from the last n retained
// core-layer spans. It errors for unknown functions and when the cache
// runs without telemetry (no spans are retained to explain).
func (c *Cache) Explain(fn string, n int) (*ExplainReport, error) {
	fc, err := c.functionIndexes(fn)
	if err != nil {
		return nil, err
	}
	if c.spans == nil {
		return nil, fmt.Errorf("core: no telemetry attached; nothing to explain")
	}
	if n <= 0 {
		n = 20
	}
	rep := &ExplainReport{Function: fn}
	for i, ki := range fc.kis {
		ki.mu.RLock()
		ilen := ki.idx.Len()
		ki.mu.RUnlock()
		rep.KeyTypes = append(rep.KeyTypes, ExplainKeyType{
			KeyType:   fc.order[i],
			IndexKind: string(ki.spec.Index),
			IndexLen:  ilen,
			Hits:      ki.ctr.hits.Load(),
			Misses:    ki.ctr.misses.Load(),
			Dropouts:  ki.ctr.dropouts.Load(),
			Tuner:     ki.tuner.Stats(),
		})
	}
	spans := c.spans.Snapshot(telemetry.SpanFilter{Function: fn, Layer: "core"})
	// Newest first: the question is "what just happened".
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq > spans[j].Seq })
	rep.Recorded = len(spans)
	if len(spans) > n {
		spans = spans[:n]
	}
	for _, sp := range spans {
		rep.Decisions = append(rep.Decisions, ExplainDecision{
			Trace:      sp.Trace,
			KeyType:    sp.KeyType,
			Outcome:    sp.Outcome,
			Distance:   sp.Distance,
			Threshold:  sp.Threshold,
			DurationNs: sp.DurationNs,
			Probes:     sp.Probes,
			Flip:       flipText(sp),
		})
	}
	return rep, nil
}

// flipText states why the decision came out as it did and what would
// have flipped it. For misses it renders the literal comparison
// "distance D > threshold T" — the relation /debug/explain exists to
// surface.
func flipText(sp telemetry.Span) string {
	switch sp.Outcome {
	case telemetry.OutcomeHit:
		return fmt.Sprintf("hit: distance %.6g <= threshold %.6g; a threshold below %.6g would have made this a miss",
			sp.Distance, sp.Threshold, sp.Distance)
	case telemetry.OutcomeMiss:
		switch {
		case sp.Distance < 0 && sp.Threshold > 0:
			return fmt.Sprintf("miss: no entry within %g·T = %.6g (threshold %.6g), the search radius; a threshold above the nearest entry's distance would have made this a hit",
				float64(SearchRadius), SearchRadius*sp.Threshold, sp.Threshold)
		case sp.Distance < 0:
			return "miss: index empty, no neighbour to compare; any insert would have been probed"
		}
		if sp.Distance <= sp.Threshold {
			return fmt.Sprintf("miss: nearest neighbour at distance %.6g was within threshold %.6g but unusable (expired or vetoed by the caller)",
				sp.Distance, sp.Threshold)
		}
		return fmt.Sprintf("miss: distance %.6g > threshold %.6g; a threshold above %.6g would have made this a hit",
			sp.Distance, sp.Threshold, sp.Distance)
	case telemetry.OutcomeDropout:
		if sp.DropoutRoll >= 0 {
			return fmt.Sprintf("dropout: roll %.4f < rate %.4f skipped the cache (§3.4); a roll above %.4f would have queried it",
				sp.DropoutRoll, sp.DropoutRate, sp.DropoutRate)
		}
		return "dropout: the random-dropout coin skipped the cache (§3.4)"
	case telemetry.OutcomePut:
		switch {
		case sp.Distance < 0 && sp.Threshold > 0:
			return fmt.Sprintf("put: no entry within %g·T = %.6g (threshold %.6g), the search radius; tuner observed no neighbour",
				float64(SearchRadius), SearchRadius*sp.Threshold, sp.Threshold)
		case sp.Distance < 0:
			return "put: first entry for this key type; tuner observed no neighbour"
		}
		return fmt.Sprintf("put: nearest neighbour at distance %.6g under threshold %.6g fed the tuner",
			sp.Distance, sp.Threshold)
	case telemetry.OutcomeError:
		return "error: " + sp.Err
	}
	return ""
}
