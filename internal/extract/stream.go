package extract

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// PieceBudget bounds the wire pieces one design may be cut into: extraction
// counts a net's pieces from its segment lengths before cutting any, and
// fails with a *PieceBudgetError once the design's running total would pass
// it. It is 15× the ~4.3M pieces of the 1M-net streaming smoke, and it keeps
// every frontier field in range: a piece's net and node indices are int32,
// its arrival sequence uint32.
const PieceBudget = 1 << 26

// PieceBudgetError reports a net whose pieces would take its design past
// PieceBudget, or whose index is past it.
type PieceBudgetError struct {
	// Net is the offending net's name, Index its global index.
	Net   string
	Index int
}

func (e *PieceBudgetError) Error() string {
	return fmt.Sprintf("extract: net %q (index %d) would take the design past the budget of %d wire pieces",
		e.Net, e.Index, PieceBudget)
}

// cellKey addresses one cell of the live frontier: the pieces of one
// (layer, orientation) group whose fixed coordinate falls in one
// MaxCoupleSpacingUM-wide strip and whose lo end falls in one MaxSegUM-long
// stretch of it. A new piece can only couple to pieces in its own strip or
// the two adjacent ones, and only to those whose lo end lies within one
// piece length below its own lo end or above it up to its hi end.
type cellKey struct {
	strip, cell int64
	layer       int32
	horiz       bool
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

	// cells holds the live pieces, each cell's in arrival order.
	cells map[cellKey][]piece
	// maxLen is the longest piece admitted (hi − lo), which bounds how far
	// below a query's lo end a coupling candidate's lo end can lie.
	maxLen float64
	// pieces counts the pieces admitted over the design: the PieceBudget
	// total and the next piece's arrival sequence.
	pieces int
	// visits counts the candidate pieces AddNet examined.
	visits int

	// livePieces counts each live net's frontier pieces; a net retires when
	// its count reaches zero (or immediately, if it produced no pieces).
	livePieces map[int32]int
	liveNets   int
	peakLive   int

	watermark  float64
	lastRetire float64
	// reachQ queues every live piece of a bounded Streamer by its reach,
	// lowest first, so retirement touches only the cells that lose a
	// piece. An unbounded Streamer never retires and queues nothing.
	reachQ reachQueue

	// Scratch reused across AddNet calls: the per-coupling sums, their keys
	// in first-touch order, and one strip's candidate cells.
	agg     map[[4]int32]float64
	touched [][4]int32
	strip   [][]piece
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
		cells:      make(map[cellKey][]piece),
		livePieces: make(map[int32]int),
		watermark:  math.Inf(-1),
		lastRetire: math.Inf(-1),
		agg:        make(map[[4]int32]float64),
	}
}

// Tech returns the process constants the streamer extracts against.
func (s *Streamer) Tech() *Tech { return s.tech }

// PeakLiveNets returns the high-water count of simultaneously live
// (unretired) nets — the frontier's peak width.
func (s *Streamer) PeakLiveNets() int { return s.peakLive }

// keyOf returns the cell key of a piece of the given group at strip
// coordinate fixed and cell coordinate lo. Coordinates within
// ±design.MaxCoordUM keep both indices far inside int64.
func (s *Streamer) keyOf(layer int32, horiz bool, fixed, lo float64) cellKey {
	return cellKey{
		strip: int64(math.Floor(fixed / s.tech.MaxCoupleSpacingUM)),
		cell:  int64(math.Floor(lo / s.tech.MaxSegUM)),
		layer: layer,
		horiz: horiz,
	}
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
	if net.Index >= PieceBudget || countPieces(net, s.tech.MaxSegUM) > PieceBudget-s.pieces {
		return nil, nil, nil, &PieceBudgetError{Net: net.Name, Index: net.Index}
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
	// new pieces in extractNet order, candidate strips ascending, pieces
	// within a strip in arrival order — is a pure function of the arrival
	// sequence, so per-coupling float accumulation is identical across the
	// bounded and unbounded modes. Only cells that can hold an overlapping
	// piece are visited; every piece a strip's other cells hold has overlap
	// ≤ 0 and would be skipped anyway, so the sums see the same terms in
	// the same order as a scan of the whole strip.
	for i := range pcs {
		q := &pcs[i]
		lo := s.keyOf(q.layer, q.horizontal, q.fixed, q.lo-s.maxLen)
		hi := s.keyOf(q.layer, q.horizontal, q.fixed, q.hi)
		for db := int64(-1); db <= 1; db++ {
			k := lo
			k.strip += db
			strip := s.strip[:0]
			for k.cell = lo.cell - 1; k.cell <= hi.cell; k.cell++ {
				if ps := s.cells[k]; len(ps) > 0 {
					strip = append(strip, ps)
				}
			}
			// Merge the cells, each in arrival order, by arrival sequence.
			for len(strip) > 0 {
				first := 0
				for c := 1; c < len(strip); c++ {
					if strip[c][0].seq < strip[first][0].seq {
						first = c
					}
				}
				s.couple(q, &strip[first][0])
				if strip[first] = strip[first][1:]; len(strip[first]) == 0 {
					strip[first] = strip[len(strip)-1]
					strip = strip[:len(strip)-1]
				}
			}
			s.strip = strip
		}
	}
	slices.SortFunc(s.touched, func(a, b [4]int32) int {
		for t := range a {
			if a[t] != b[t] {
				return cmp.Compare(a[t], b[t])
			}
		}
		return 0
	})
	var final []Coupling
	if len(s.touched) > 0 {
		final = make([]Coupling, 0, len(s.touched))
		for _, k := range s.touched {
			final = append(final, Coupling{NetA: int(k[0]), NodeA: int(k[1]), NetB: int(k[2]), NodeB: int(k[3]), Farads: s.agg[k]})
			delete(s.agg, k)
		}
		s.touched = s.touched[:0]
	}

	// Admit the new net's pieces to the frontier.
	bounded := !math.IsInf(s.slackUM, 1)
	for _, q := range pcs {
		q.seq = uint32(s.pieces)
		s.pieces++
		s.maxLen = math.Max(s.maxLen, q.hi-q.lo)
		k := s.keyOf(q.layer, q.horizontal, q.fixed, q.lo)
		s.cells[k] = append(s.cells[k], q)
		if bounded {
			s.reachQ.push(reachEntry{s.reach(&q), k})
		}
	}
	var retired []int
	if len(pcs) > 0 {
		s.livePieces[int32(net.Index)] = len(pcs)
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
	slices.Sort(retired)
	return rc, final, retired, nil
}

// countPieces returns how many pieces extractNet cuts net into, or
// PieceBudget+1 once the count passes the budget.
func countPieces(net *design.Net, maxSegUM float64) int {
	n := 0
	for _, seg := range net.Route {
		k := math.Ceil(seg.Length() / maxSegUM)
		if !(k <= float64(PieceBudget-n)) {
			return PieceBudget + 1
		}
		n += int(k)
	}
	return n
}

// couple adds the coupling between new piece q and frontier piece p, if
// they couple at all, to the AddNet sums.
func (s *Streamer) couple(q, p *piece) {
	s.visits++
	if p.net == q.net {
		return
	}
	spacing := math.Abs(q.fixed - p.fixed)
	if spacing == 0 || spacing > s.tech.MaxCoupleSpacingUM {
		return
	}
	overlap := math.Min(q.hi, p.hi) - math.Max(q.lo, p.lo)
	if overlap <= 0 {
		return
	}
	sp := math.Max(spacing, s.tech.MinSpacingUM)
	cc := s.tech.Cc0FPerUM * (s.tech.MinSpacingUM / sp) * overlap
	// Attach half at the low-end node pair and half at the high-end pair,
	// approximating the distributed coupling.
	s.addHalf(q, p, math.Max(q.lo, p.lo), cc/2)
	s.addHalf(q, p, math.Min(q.hi, p.hi), cc/2)
}

// addHalf adds f to the coupling between the nodes of q and p nearest to
// position pos along them.
func (s *Streamer) addHalf(q, p *piece, pos, f float64) {
	na := q.nodeLo
	if pos-q.lo > q.hi-pos {
		na = q.nodeHi
	}
	nb := p.nodeLo
	if pos-p.lo > p.hi-pos {
		nb = p.nodeHi
	}
	k := [4]int32{q.net, na, p.net, nb}
	if q.net > p.net {
		k = [4]int32{p.net, nb, q.net, na}
	}
	sum, ok := s.agg[k]
	if !ok {
		s.touched = append(s.touched, k)
	}
	s.agg[k] = sum + f
}

// reach returns the y below which no net at or above it can couple to p: a
// vertical piece's top end, a horizontal piece's fixed y plus the coupling
// window.
func (s *Streamer) reach(p *piece) float64 {
	if p.horizontal {
		return p.fixed + s.tech.MaxCoupleSpacingUM
	}
	return p.hi
}

// retireBelow drops every frontier piece whose reach is below the line and
// returns the nets whose last live piece went with it. Each queue entry
// below the line sends retirement to its cell; a cell an earlier entry
// already emptied is gone from the map and costs a lookup.
func (s *Streamer) retireBelow(line float64) []int {
	if math.IsInf(line, -1) || line <= s.lastRetire {
		return nil
	}
	s.lastRetire = line
	var retired []int
	for len(s.reachQ) > 0 && s.reachQ[0].reach < line {
		k := s.reachQ.pop().key
		ps := s.cells[k]
		live := ps[:0]
		for _, p := range ps {
			if s.reach(&p) < line {
				retired = s.release(p.net, retired)
				continue
			}
			live = append(live, p)
		}
		switch {
		case len(live) == 0:
			delete(s.cells, k)
		case len(live) < len(ps):
			s.cells[k] = live
		}
	}
	return retired
}

// reachEntry queues one live piece, by its reach, for retirement from the
// cell at key.
type reachEntry struct {
	reach float64
	key   cellKey
}

// reachQueue is a binary min-heap of reachEntry by reach.
type reachQueue []reachEntry

func (q *reachQueue) push(e reachEntry) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].reach <= h[i].reach {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	*q = h
}

func (q *reachQueue) pop() reachEntry {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].reach < h[c].reach {
			c++
		}
		if h[i].reach <= h[c].reach {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// release drops one live piece of net and appends the net to retired if it
// was the last.
func (s *Streamer) release(net int32, retired []int) []int {
	s.livePieces[net]--
	if s.livePieces[net] == 0 {
		delete(s.livePieces, net)
		s.liveNets--
		retired = append(retired, int(net))
	}
	return retired
}

// Finish retires every remaining net (no further couplings are possible —
// each coupling is finalized by the later member's AddNet) and returns their
// indices sorted ascending.
func (s *Streamer) Finish() []int {
	var retired []int
	for _, ps := range s.cells {
		for _, p := range ps {
			retired = s.release(p.net, retired)
		}
	}
	clear(s.cells)
	s.reachQ = s.reachQ[:0]
	slices.Sort(retired)
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
