package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minTail is the number of samples that must lie beyond a tail percentile
// before it is reported: a p90 needs at least 100 samples.
const minTail = 10

// quantile is one order statistic of a sample, with the counts that say how
// much it can be trusted.
type quantile struct {
	Value float64
	// N is the sample count; Beyond the number of samples ranked above the
	// returned one.
	N, Beyond int
}

// nearestRank returns the nearest-rank q-quantile (0 < q ≤ 1) of xs. An
// empty sample yields the zero quantile.
func nearestRank(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return quantile{Value: s[k], N: n, Beyond: n - 1 - k}
}

// tail returns the q-quantile and whether it may be reported: only when at
// least minTail samples lie beyond it.
func tail(xs []float64, q float64) (quantile, bool) {
	p := nearestRank(xs, q)
	return p, p.Beyond >= minTail
}

// median is the middle of xs (the mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// outcome is what the benchmark checks about one operation.
type outcome struct {
	Err error
	// Status is the HTTP status of a daemon request; 0 for a library call.
	Status int
	// Unverified counts clusters the engine left unverified.
	Unverified int
	// FullRecompute marks a /v1/reverify that fell back to a cold run.
	FullRecompute bool
	// Digest is the report digest (see reportDigest).
	Digest string
}

// tally counts operations attempted and failed, with the reasons.
type tally struct {
	attempted, failed int
	reasons           map[string]int
}

// record checks one operation against the expected digest (want; "" skips
// the comparison) and reports whether it succeeded. An operation fails if
// it returned an error, a non-200 status, an unverified cluster, a full
// recompute or a digest other than want.
func (t *tally) record(o outcome, want string) bool {
	t.attempted++
	var why []string
	switch {
	case o.Err != nil:
		why = append(why, "error")
	case o.Status != 0 && o.Status != 200:
		why = append(why, fmt.Sprintf("status %d", o.Status))
	default:
		if o.Unverified > 0 {
			why = append(why, "unverified")
		}
		if o.FullRecompute {
			why = append(why, "full_recompute")
		}
		if want != "" && o.Digest != want {
			why = append(why, "digest")
		}
	}
	if len(why) == 0 {
		return true
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = make(map[string]int)
	}
	t.reasons[strings.Join(why, "+")]++
	return false
}

// fail counts an operation that could not be checked at all.
func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = make(map[string]int)
	}
	t.reasons[reason]++
}

func (t *tally) String() string {
	keys := make([]string, 0, len(t.reasons))
	for k := range t.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, t.reasons[k])
	}
	s := fmt.Sprintf("attempted=%d failed=%d", t.attempted, t.failed)
	if len(parts) > 0 {
		s += " (" + strings.Join(parts, ", ") + ")"
	}
	return s
}

// reference holds the digest every operation of a run must reproduce: the
// recorded one for the recorded seed, otherwise the run's first.
type reference struct {
	want string
	// seen is the first digest the run produced.
	seen string
	// missing marks the recorded seed without a recorded digest, which
	// fails the run: there is nothing to check against.
	missing bool
}

// expect returns the digest d must equal, adopting d when the run has no
// reference yet (an empty d, from a failed operation, is never adopted).
func (r *reference) expect(d string) string {
	if r.seen == "" {
		r.seen = d
	}
	if r.want == "" && !r.missing && d != "" {
		r.want = d
	}
	return r.want
}

func (r *reference) String() string {
	if r.missing {
		return r.seen + " (nothing recorded)"
	}
	return r.seen
}
