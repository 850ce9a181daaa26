package extract

import (
	"fmt"
	"math"
	"sort"

	"xtverify/internal/design"
)

// Unbounded is the frontier slack that disables retirement entirely: the
// Streamer keeps every piece live until Finish. Extract runs in this mode,
// which makes the materialized path the streamed path with an infinite
// frontier — byte-identical by construction on every input that streams
// without a frontier error.
var Unbounded = math.Inf(1)

// DefaultFrontierSlackUM is the default tolerance for non-monotone net
// arrival order in streamed ingest. A net may arrive with its lowest node up
// to this many µm below the highest minimum-y seen so far; pieces are only
// retired once no net above the watermark minus this slack can couple to
// them. 50 µm comfortably covers the dsp generator's bundle jitter (< 7 µm)
// and typical row-ordered DEF writers.
const DefaultFrontierSlackUM = 50.0

// FrontierError reports a violation of the streaming frontier invariant:
// a net arrived so far below the retirement watermark that couplings to
// already-retired geometry may have been missed. The input must be fed in
// (approximately) ascending-y order, or the slack raised.
type FrontierError struct {
	// Net is the offending net's name, Index its global index.
	Net   string
	Index int
	// MinY is the net's lowest node position; Watermark the running maximum
	// of per-net MinY over all earlier nets; SlackUM the configured
	// tolerance. The invariant requires MinY >= Watermark - SlackUM.
	MinY, Watermark, SlackUM float64
}

func (e *FrontierError) Error() string {
	return fmt.Sprintf("extract: frontier invariant violated: net %q (index %d) arrives with min y %.3f µm, below watermark %.3f µm - slack %.3f µm; feed nets in ascending-y order or raise the frontier slack",
		e.Net, e.Index, e.MinY, e.Watermark, e.SlackUM)
}

// bucketKey addresses one spatial bucket of the live frontier: pieces of one
// (layer, orientation) group whose fixed coordinate falls in bucket-sized
// strips of width MaxCoupleSpacingUM. A new piece can only couple to pieces
// in its own bucket or the two adjacent ones.
type bucketKey struct {
	layer  int
	horiz  bool
	bucket int64
}

// livePiece is a frontier-resident wire fragment plus the y beyond which no
// future (ascending-y) net can couple to it.
type livePiece struct {
	piece
	reachY float64
}

// Streamer is the incremental extraction kernel. Nets are fed one at a time
// in (approximately) ascending-y order; each AddNet returns the net's RC and
// every coupling capacitor that became final with this net's arrival — a
// coupling between nets a and b is computed entirely during the later of the
// two AddNet calls, so emitted couplings never change afterwards.
//
// With a finite frontier slack the Streamer retires pieces that no future
// net can couple to, keeping live state O(frontier) instead of O(chip);
// with Unbounded slack it retires nothing and reproduces Extract exactly.
// Per-coupling sums are accumulated in arrival order in both modes, so the
// two paths agree bit for bit.
type Streamer struct {
	tech    *Tech
	slackUM float64

	buckets map[bucketKey]*[]livePiece
	keys    []bucketKey // creation-ordered index of non-empty buckets

	// livePieces counts each live net's frontier pieces; a net retires when
	// its count reaches zero (or immediately, if it produced no pieces).
	livePieces map[int]int
	liveNets   int
	peakLive   int

	watermark  float64
	lastRetire float64
}

// NewStreamer returns a Streamer for the given process constants (nil means
// Tech025) and frontier slack in µm (Unbounded disables retirement).
func NewStreamer(tech *Tech, slackUM float64) *Streamer {
	if tech == nil {
		tech = Tech025()
	}
	return &Streamer{
		tech:       tech,
		slackUM:    slackUM,
		buckets:    make(map[bucketKey]*[]livePiece),
		livePieces: make(map[int]int),
		watermark:  math.Inf(-1),
		lastRetire: math.Inf(-1),
	}
}

// Tech returns the process constants the streamer extracts against.
func (s *Streamer) Tech() *Tech { return s.tech }

// PeakLiveNets returns the high-water count of simultaneously live
// (unretired) nets — the frontier's peak width.
func (s *Streamer) PeakLiveNets() int { return s.peakLive }

func (s *Streamer) bucketOf(fixed float64) int64 {
	return int64(math.Floor(fixed / s.tech.MaxCoupleSpacingUM))
}

// AddNet extracts one net against the live frontier. It returns the net's
// RC, the couplings finalized by this net's arrival (sorted by canonical
// (NetA,NodeA,NetB,NodeB) key), and the global indices of nets fully retired
// by the watermark advance (sorted ascending). The net must carry its final
// global Index and satisfy design.ValidateNet.
func (s *Streamer) AddNet(net *design.Net) (*NetRC, []Coupling, []int, error) {
	if err := design.ValidateNet(net); err != nil {
		return nil, nil, nil, fmt.Errorf("extract: %w", err)
	}
	rc, pcs := extractNet(net, s.tech)

	minY := math.Inf(1)
	for _, y := range rc.NodeY {
		if y < minY {
			minY = y
		}
	}
	if minY < s.watermark-s.slackUM {
		return nil, nil, nil, &FrontierError{
			Net: net.Name, Index: net.Index,
			MinY: minY, Watermark: s.watermark, SlackUM: s.slackUM,
		}
	}

	// Pair every new piece against the live frontier. Iteration order —
	// new pieces in extractNet order, candidate buckets ascending, pieces
	// within a bucket in arrival order — is a pure function of the arrival
	// sequence, so per-coupling float accumulation is identical across the
	// bounded and unbounded modes.
	agg := make(map[[4]int]float64)
	var touched [][4]int
	maxS := s.tech.MaxCoupleSpacingUM
	for _, q := range pcs {
		b0 := s.bucketOf(q.fixed)
		for db := int64(-1); db <= 1; db++ {
			bucket := s.buckets[bucketKey{q.layer, q.horizontal, b0 + db}]
			if bucket == nil {
				continue
			}
			for i := range *bucket {
				p := &(*bucket)[i]
				if p.net == q.net {
					continue
				}
				spacing := math.Abs(q.fixed - p.fixed)
				if spacing == 0 || spacing > maxS {
					continue
				}
				overlap := math.Min(q.hi, p.hi) - math.Max(q.lo, p.lo)
				if overlap <= 0 {
					continue
				}
				sp := math.Max(spacing, s.tech.MinSpacingUM)
				cc := s.tech.Cc0FPerUM * (s.tech.MinSpacingUM / sp) * overlap
				// Attach half at the low-end node pair and half at the
				// high-end pair, approximating the distributed coupling.
				lo := math.Max(q.lo, p.lo)
				hi := math.Min(q.hi, p.hi)
				addHalf := func(pos, f float64) {
					na := q.nodeLo
					if pos-q.lo > q.hi-pos {
						na = q.nodeHi
					}
					nb := p.nodeLo
					if pos-p.lo > p.hi-pos {
						nb = p.nodeHi
					}
					k := [4]int{q.net, na, p.net, nb}
					if q.net > p.net {
						k = [4]int{p.net, nb, q.net, na}
					}
					if _, ok := agg[k]; !ok {
						touched = append(touched, k)
					}
					agg[k] += f
				}
				addHalf(lo, cc/2)
				addHalf(hi, cc/2)
			}
		}
	}
	sort.Slice(touched, func(i, j int) bool {
		a, b := touched[i], touched[j]
		for t := 0; t < 4; t++ {
			if a[t] != b[t] {
				return a[t] < b[t]
			}
		}
		return false
	})
	var final []Coupling
	if len(touched) > 0 {
		final = make([]Coupling, 0, len(touched))
		for _, k := range touched {
			final = append(final, Coupling{NetA: k[0], NodeA: k[1], NetB: k[2], NodeB: k[3], Farads: agg[k]})
		}
	}

	// Admit the new net's pieces to the frontier.
	for _, q := range pcs {
		reach := q.hi
		if q.horizontal {
			reach = q.fixed + maxS
		}
		k := bucketKey{q.layer, q.horizontal, s.bucketOf(q.fixed)}
		bucket := s.buckets[k]
		if bucket == nil {
			bucket = new([]livePiece)
			s.buckets[k] = bucket
			s.keys = append(s.keys, k)
		}
		*bucket = append(*bucket, livePiece{piece: q, reachY: reach})
	}
	var retired []int
	if len(pcs) > 0 {
		s.livePieces[net.Index] = len(pcs)
		s.liveNets++
		if s.liveNets > s.peakLive {
			s.peakLive = s.liveNets
		}
	} else {
		// A pin-only net has no wire to couple to; it is born retired.
		retired = append(retired, net.Index)
	}

	if minY > s.watermark {
		s.watermark = minY
	}
	retired = append(retired, s.retireBelow(s.watermark-s.slackUM)...)
	sort.Ints(retired)
	return rc, final, retired, nil
}

// retireBelow drops every frontier piece whose reachY is strictly below the
// line and returns the nets whose last live piece went with it.
func (s *Streamer) retireBelow(line float64) []int {
	if math.IsInf(line, -1) || line <= s.lastRetire {
		return nil
	}
	s.lastRetire = line
	var retired []int
	kept := s.keys[:0]
	for _, k := range s.keys {
		bucket := s.buckets[k]
		live := (*bucket)[:0]
		for _, p := range *bucket {
			if p.reachY < line {
				s.livePieces[p.net]--
				if s.livePieces[p.net] == 0 {
					delete(s.livePieces, p.net)
					s.liveNets--
					retired = append(retired, p.net)
				}
				continue
			}
			live = append(live, p)
		}
		if len(live) == 0 {
			delete(s.buckets, k)
			continue
		}
		*bucket = live
		kept = append(kept, k)
	}
	s.keys = kept
	return retired
}

// Finish retires every remaining net (no further couplings are possible —
// each coupling is finalized by the later member's AddNet) and returns their
// indices sorted ascending.
func (s *Streamer) Finish() []int {
	var retired []int
	for _, k := range s.keys {
		bucket := s.buckets[k]
		for _, p := range *bucket {
			s.livePieces[p.net]--
			if s.livePieces[p.net] == 0 {
				delete(s.livePieces, p.net)
				s.liveNets--
				retired = append(retired, p.net)
			}
		}
		delete(s.buckets, k)
	}
	s.keys = s.keys[:0]
	sort.Ints(retired)
	return retired
}

// sortCouplings orders couplings by their canonical (NetA, NodeA, NetB,
// NodeB) key — the order Parasitics.Couplings is pinned to.
func sortCouplings(cc []Coupling) {
	sort.Slice(cc, func(i, j int) bool {
		a, b := cc[i], cc[j]
		if a.NetA != b.NetA {
			return a.NetA < b.NetA
		}
		if a.NodeA != b.NodeA {
			return a.NodeA < b.NodeA
		}
		if a.NetB != b.NetB {
			return a.NetB < b.NetB
		}
		return a.NodeB < b.NodeB
	})
}
