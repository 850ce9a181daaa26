package extract

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
)

// chipDSP is the benchmark chip's generator at the given channel count: 401
// nets a channel, channels stacked in y, so the METAL1 stubs of every channel
// share the same few x-strips.
func chipDSP(t testing.TB, channels int) *design.Design {
	t.Helper()
	d, err := dsp.Generate(dsp.Config{Seed: 1999, Channels: channels, TracksPerChannel: 400,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// streamAll feeds every net of d to a Streamer with the given slack and
// returns it finished.
func streamAll(t testing.TB, d *design.Design, slackUM float64) *Streamer {
	t.Helper()
	s := NewStreamer(nil, slackUM)
	for _, n := range d.Nets {
		if _, _, _, err := s.AddNet(n); err != nil {
			t.Fatal(err)
		}
	}
	s.Finish()
	return s
}

// TestFrontierVisitsStayFlat pins the frontier index's work per piece, a
// count no host noise can move. Quadrupling the chip's channels must not
// grow the candidate pieces an unbounded (materialized) extraction visits
// per admitted piece, and that extraction, which keeps the whole chip live,
// must visit about as few as a default-slack stream, which keeps only a
// sliver. An index keyed by strip alone visits every piece of a shared
// strip, which grows with the chip.
func TestFrontierVisitsStayFlat(t *testing.T) {
	perPiece := func(s *Streamer) float64 { return float64(s.visits) / float64(s.pieces) }
	small := streamAll(t, chipDSP(t, 10), Unbounded)
	large := chipDSP(t, 40)
	unbounded := streamAll(t, large, Unbounded)
	bounded := streamAll(t, large, DefaultFrontierSlackUM)
	t.Logf("visits per piece: 10 channels %.2f, 40 channels %.2f unbounded, %.2f default slack",
		perPiece(small), perPiece(unbounded), perPiece(bounded))
	if perPiece(unbounded) > 1.1*perPiece(small) {
		t.Errorf("visits per piece grew from %.2f at 10 channels to %.2f at 40", perPiece(small), perPiece(unbounded))
	}
	if float64(unbounded.visits) > 1.25*float64(bounded.visits) {
		t.Errorf("unbounded extraction visits %d pieces, over 1.25× the %d of a default-slack stream", unbounded.visits, bounded.visits)
	}
}

// TestPieceBudget: a net whose segment lengths would take the design past
// PieceBudget fails with a *PieceBudgetError before it is cut, and so does
// a net whose index is past the budget.
func TestPieceBudget(t *testing.T) {
	tech := Tech025()
	span := 2 * design.MaxCoordUM
	perSeg := int(span / tech.MaxSegUM)
	inv, _ := cells.ByName("INV_X1")
	net := &design.Net{Name: "long", Drivers: []design.Pin{{Inst: "d", Cell: inv, Pin: "Z"}}}
	for range PieceBudget/perSeg + 1 {
		net.Route = append(net.Route, design.Segment{Layer: 2, X0: -design.MaxCoordUM, X1: design.MaxCoordUM, Width: 0.6})
	}
	var be *PieceBudgetError
	if _, _, _, err := NewStreamer(tech, Unbounded).AddNet(net); !errors.As(err, &be) || be.Net != "long" {
		t.Errorf("AddNet over the budget: %v, want a *PieceBudgetError", err)
	}

	short := &design.Net{Name: "short", Index: PieceBudget, Drivers: net.Drivers,
		Route: []design.Segment{{Layer: 2, X1: 10, Width: 0.6}}}
	if _, _, _, err := NewStreamer(tech, Unbounded).AddNet(short); !errors.As(err, &be) || be.Index != PieceBudget {
		t.Errorf("AddNet of net index %d: %v, want a *PieceBudgetError", PieceBudget, err)
	}
	short.Index = 0
	if _, _, _, err := NewStreamer(tech, Unbounded).AddNet(short); err != nil {
		t.Errorf("AddNet of a short net: %v", err)
	}
}

// reference is the frontier the cell index replaced, kept as an oracle.
// Every new piece visits every earlier live piece of its (layer,
// orientation) group in the three strips around it, strip by strip, in
// arrival order, and each time the retirement line rises every live piece
// is checked against it. Pair arithmetic goes through Streamer.couple, so
// the oracle checks which pairs the index visits, in what order, and which
// nets it retires when.
type reference struct {
	tech                  *Tech
	slackUM               float64
	strips                map[refStrip][]piece
	acc                   *Streamer
	live                  map[int32]int
	watermark, lastRetire float64
}

type refStrip struct {
	layer int32
	horiz bool
	strip int64
}

func newReference(tech *Tech, slackUM float64) *reference {
	return &reference{tech: tech, slackUM: slackUM, strips: map[refStrip][]piece{},
		acc: NewStreamer(tech, Unbounded), live: map[int32]int{},
		watermark: math.Inf(-1), lastRetire: math.Inf(-1)}
}

// addNet returns the couplings n's arrival finalizes, in canonical order,
// and the nets it retires, ascending; ok is false when n arrives below the
// frontier.
func (r *reference) addNet(n *design.Net) (cc []Coupling, retired []int, ok bool) {
	rc, pcs := extractNet(n, r.tech)
	minY := slices.Min(rc.NodeY)
	if minY < r.watermark-r.slackUM {
		return nil, nil, false
	}
	stripOf := func(q *piece) refStrip {
		return refStrip{q.layer, q.horizontal, int64(math.Floor(q.fixed / r.tech.MaxCoupleSpacingUM))}
	}
	for i := range pcs {
		q := &pcs[i]
		k := stripOf(q)
		for db := int64(-1); db <= 1; db++ {
			strip := r.strips[refStrip{k.layer, k.horiz, k.strip + db}]
			for j := range strip {
				r.acc.couple(q, &strip[j])
			}
		}
	}
	for _, k := range r.acc.touched {
		cc = append(cc, Coupling{NetA: int(k[0]), NodeA: int(k[1]), NetB: int(k[2]), NodeB: int(k[3]), Farads: r.acc.agg[k]})
	}
	clear(r.acc.agg)
	r.acc.touched = r.acc.touched[:0]
	sortCouplings(cc)

	for _, q := range pcs {
		k := stripOf(&q)
		r.strips[k] = append(r.strips[k], q)
		r.live[q.net]++
	}
	if len(pcs) == 0 {
		retired = append(retired, n.Index)
	}
	r.watermark = math.Max(r.watermark, minY)
	if line := r.watermark - r.slackUM; line > r.lastRetire {
		r.lastRetire = line
		for k, strip := range r.strips {
			kept := strip[:0]
			for _, p := range strip {
				reach := p.hi
				if p.horizontal {
					reach = p.fixed + r.tech.MaxCoupleSpacingUM
				}
				if reach >= line {
					kept = append(kept, p)
					continue
				}
				if r.live[p.net]--; r.live[p.net] == 0 {
					delete(r.live, p.net)
					retired = append(retired, int(p.net))
				}
			}
			r.strips[k] = kept
		}
	}
	slices.Sort(retired)
	return cc, retired, true
}

// finish returns the nets still live, ascending.
func (r *reference) finish() []int {
	var nets []int
	for net := range r.live {
		nets = append(nets, int(net))
	}
	slices.Sort(nets)
	return nets
}

// fuzzNets decodes data into up to six nets of one to four Manhattan
// segments each on layers 1 and 2, every coordinate on a 1.25 µm grid
// within ±160 µm, so ends land on 2.5 µm strip and 25 µm cell boundaries.
// Lengths run from zero to 318.75 µm (up to 13 pieces), and segments of one
// net may overlap. Each net gets a driver pin at its first segment's start.
// When the first byte is odd the nets are ordered by lowest y, which most
// default-slack streams accept.
func fuzzNets(data []byte) []*design.Net {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	at := func() float64 { return 1.25 * float64(int8(next())) }
	inv, ok := cells.ByName("INV_X1")
	if !ok {
		panic("INV_X1 missing from the cell library")
	}
	sorted := next()&1 == 1
	var nets []*design.Net
	for len(data) > 0 && len(nets) < 6 {
		n := &design.Net{Name: fmt.Sprintf("n%d", len(nets))}
		for range 1 + next()&3 {
			m := next()
			fixed, from := at(), at()
			to := from + 1.25*float64(next())
			if m&4 != 0 {
				from, to = to, from
			}
			seg := design.Segment{Layer: 1 + int(m&1), X0: fixed, X1: fixed, Y0: from, Y1: to, Width: 0.6}
			if m&2 != 0 {
				seg = design.Segment{Layer: seg.Layer, X0: from, X1: to, Y0: fixed, Y1: fixed, Width: 0.6}
			}
			n.Route = append(n.Route, seg)
		}
		n.Drivers = []design.Pin{{Inst: n.Name + "_drv", Cell: inv, Pin: "Z", PosX: n.Route[0].X0, PosY: n.Route[0].Y0}}
		nets = append(nets, n)
	}
	if sorted {
		minY := func(n *design.Net) float64 {
			y := math.Inf(1)
			for _, s := range n.Route {
				y = min(y, s.Y0, s.Y1)
			}
			return y
		}
		slices.SortStableFunc(nets, func(a, b *design.Net) int { return cmp.Compare(minY(a), minY(b)) })
	}
	return nets
}

// sameCouplings reports the first difference between two canonical
// coupling lists, Farads compared bit for bit.
func sameCouplings(got, want []Coupling) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d couplings, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.NetA != w.NetA || g.NodeA != w.NodeA || g.NetB != w.NetB || g.NodeB != w.NodeB ||
			math.Float64bits(g.Farads) != math.Float64bits(w.Farads) {
			return fmt.Errorf("coupling %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// FuzzStreamer checks the cell index against the reference frontier bit for
// bit: Extract's couplings, and a default-slack Streamer's couplings and
// retirements net by net, or its frontier error where the reference finds
// the nets' order breaks the frontier.
func FuzzStreamer(f *testing.F) {
	// Each net is one byte (segments − 1 in its low two bits), then four
	// bytes a segment: flags (bit 0 layer 2, bit 1 horizontal, bit 2
	// reversed), fixed and start coordinates (int8 × 1.25 µm) and length
	// (uint8 × 1.25 µm).
	for _, seed := range [][]byte{
		// Two vertical wires exactly one strip (2.5 µm, the coupling
		// window) apart, each one 25 µm cell long.
		{1, 0, 0, 0, 0, 20, 0, 0, 2, 0, 20},
		// Horizontal wires inside the window: a 13-piece one, one running
		// backwards, one between them.
		{1, 0, 2, 0, 236, 255, 0, 6, 2, 20, 40, 0, 2, 1, 0, 40},
		// A zero-length segment, and a net whose two segments coincide.
		{0, 1, 0, 8, 8, 0, 0, 8, 0, 40, 1, 0, 9, 4, 30, 0, 9, 4, 30},
		// Both layers and orientations; the second net arrives below the
		// first, past the default slack.
		{0, 3, 0, 100, 40, 20, 1, 100, 40, 20, 2, 80, 0, 30, 3, 10, 0, 200, 1, 0, 101, 200, 60, 6, 2, 180, 60},
		// Pieces straddling strip and cell boundaries at negative
		// coordinates.
		{1, 1, 0, 254, 236, 41, 2, 236, 254, 41, 0, 0, 253, 216, 60, 0, 2, 235, 250, 20},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nets := fuzzNets(data)
		if len(nets) == 0 {
			return
		}
		d := design.New("fuzz")
		for _, n := range nets {
			d.AddNet(n)
		}
		tech := Tech025()
		ref := newReference(tech, Unbounded)
		var want []Coupling
		for _, n := range d.Nets {
			cc, _, _ := ref.addNet(n)
			want = append(want, cc...)
		}
		sortCouplings(want)
		par, err := Extract(d, tech)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCouplings(par.Couplings, want); err != nil {
			t.Fatalf("Extract: %v", err)
		}

		s := NewStreamer(tech, DefaultFrontierSlackUM)
		ref = newReference(tech, DefaultFrontierSlackUM)
		for _, n := range d.Nets {
			_, cc, retired, err := s.AddNet(n)
			wantCC, wantRetired, ok := ref.addNet(n)
			if !ok {
				var fe *FrontierError
				if !errors.As(err, &fe) {
					t.Fatalf("net %d breaks the frontier, but AddNet returned %v", n.Index, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCouplings(cc, wantCC); err != nil {
				t.Fatalf("default-slack Streamer, net %d: %v", n.Index, err)
			}
			if !slices.Equal(retired, wantRetired) {
				t.Fatalf("default-slack Streamer, net %d retires %v, want %v", n.Index, retired, wantRetired)
			}
		}
		if got, want := s.Finish(), ref.finish(); !slices.Equal(got, want) {
			t.Fatalf("Finish retires %v, want %v", got, want)
		}
	})
}
