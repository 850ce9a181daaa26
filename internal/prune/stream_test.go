package prune_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
	"xtverify/internal/prune"
)

// streamAll feeds a materialized design through the streaming kernel +
// clusterer and returns the closed components.
func streamAll(t *testing.T, d *design.Design, slackUM float64, opt prune.Options) []*prune.ClosedComponent {
	t.Helper()
	str := extract.NewStreamer(nil, slackUM)
	sc := prune.NewStreamClusterer(d.Name, str.Tech(), opt)
	var comps []*prune.ClosedComponent
	drain := func(closed []*prune.ClosedComponent, err error) {
		if err != nil {
			t.Fatalf("retire: %v", err)
		}
		comps = append(comps, closed...)
	}
	marks := make(map[int][][2]int)
	for _, p := range d.Complementary {
		later := p[0]
		if p[1] > later {
			later = p[1]
		}
		marks[later] = append(marks[later], p)
	}
	for _, net := range d.Nets {
		rc, final, retired, err := str.AddNet(net)
		if err != nil {
			t.Fatalf("AddNet(%s): %v", net.Name, err)
		}
		sc.AddNet(net, rc, final)
		// Replay complementary marks at the chronological point the
		// generator would issue them (right after the later member).
		for _, p := range marks[net.Index] {
			sc.MarkComplementary(p[0], p[1])
		}
		drain(sc.Retire(retired))
	}
	drain(sc.Retire(str.Finish()))
	drain(sc.Finish())
	if got := sc.LiveNets(); got != 0 {
		t.Fatalf("clusterer leaked %d live nets after Finish", got)
	}
	return comps
}

// clusterCount is the number of clusters the components hold.
func clusterCount(comps []*prune.ClosedComponent) int {
	n := 0
	for _, c := range comps {
		n += len(c.Clusters)
	}
	return n
}

// checkEquality verifies the streamed cluster set matches the materialized
// one exactly: same victims, same aggressors with bitwise-equal coupling,
// bitwise-equal kept/dropped totals, and fingerprint-identical circuits.
func checkEquality(t *testing.T, d *design.Design, slackUM float64, opt prune.Options) {
	t.Helper()
	p, err := extract.Extract(d, nil)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	want := prune.Clusters(p, opt)
	wantBy := make(map[int]*prune.Cluster, len(want))
	for _, cl := range want {
		wantBy[cl.Victim] = cl
	}

	comps := streamAll(t, d, slackUM, opt)
	if got := clusterCount(comps); got != len(want) {
		t.Fatalf("streamed %d clusters, materialized %d", got, len(want))
	}
	// Raw component population must match RawClusters' ≥2-sized components.
	raw := 0
	for _, g := range prune.RawClusters(p) {
		if len(g) >= 2 {
			raw++
		}
	}
	rawStreamed := 0
	for _, c := range comps {
		if len(c.Members) >= 2 {
			rawStreamed++
		}
	}
	if raw != rawStreamed {
		t.Fatalf("streamed %d raw components (size ≥ 2), materialized %d", rawStreamed, raw)
	}

	for _, c := range comps {
		members := c.Members
		for _, cl := range c.Clusters {
			victim := members[cl.Victim]
			w := wantBy[victim]
			if w == nil {
				t.Fatalf("streamed victim %d not in materialized cluster set", victim)
			}
			if len(cl.Aggressors) != len(w.Aggressors) {
				t.Fatalf("victim %d: %d streamed aggressors, want %d", victim, len(cl.Aggressors), len(w.Aggressors))
			}
			for i, a := range cl.Aggressors {
				if members[a.Net] != w.Aggressors[i].Net {
					t.Errorf("victim %d aggressor %d: net %d, want %d", victim, i, members[a.Net], w.Aggressors[i].Net)
				}
				if a.CouplingF != w.Aggressors[i].CouplingF {
					t.Errorf("victim %d aggressor %d: coupling %g, want %g (must be bitwise equal)", victim, i, a.CouplingF, w.Aggressors[i].CouplingF)
				}
			}
			if cl.KeptF != w.KeptF || cl.DroppedF != w.DroppedF {
				t.Errorf("victim %d: kept/dropped %g/%g, want %g/%g", victim, cl.KeptF, cl.DroppedF, w.KeptF, w.DroppedF)
			}

			wantCkt, err := prune.BuildCircuit(p, w)
			if err != nil {
				t.Fatalf("materialized BuildCircuit(%d): %v", w.Victim, err)
			}
			gotCkt, err := prune.BuildCircuit(c.Par, cl)
			if err != nil {
				t.Fatalf("streamed BuildCircuit(%d): %v", victim, err)
			}
			wantFP := prune.Fingerprint(wantCkt, 1e-9, 8, false)
			gotFP := prune.Fingerprint(gotCkt, 1e-9, 8, false)
			if wantFP != gotFP {
				t.Errorf("victim %d: circuit fingerprint diverged between streamed and materialized builds", victim)
			}
		}
	}
}

// TestStreamEqualityChipSpanningCluster drives the worst case for closure:
// one component that spans the whole chip, closing only at Finish.
func TestStreamEqualityChipSpanningCluster(t *testing.T) {
	d, err := dsp.ParallelWires(40, 400, 1.2, []string{"BUF_X4", "INV_X2"}, "LATCH_X1")
	if err != nil {
		t.Fatal(err)
	}
	checkEquality(t, d, extract.DefaultFrontierSlackUM, prune.DefaultOptions())
	// A bounded frontier must hold every net of the open component anyway.
	comps := streamAll(t, d, extract.DefaultFrontierSlackUM, prune.DefaultOptions())
	if len(comps) != 1 || len(comps[0].Members) != 40 {
		t.Fatalf("expected one 40-net chip-spanning component, got %d components", len(comps))
	}
}

// TestStreamEqualityPathologicalOrder feeds nets whose y positions zig-zag
// inside the frontier slack — legal but maximally out of order — with
// vertical stubs thrown in so both piece orientations cross bucket
// boundaries.
func TestStreamEqualityPathologicalOrder(t *testing.T) {
	buf, err := cells.Lookup("BUF_X4")
	if err != nil {
		t.Fatal(err)
	}
	lat, err := cells.Lookup("LATCH_X1")
	if err != nil {
		t.Fatal(err)
	}
	d := design.New("zigzag")
	// Tracks at y = i*1.1 but emitted in a 0,2,1,4,3,... shuffle (each net
	// arrives at most 1.1 µm below the watermark, well inside the slack),
	// alternating with isolated pairs far away in x.
	order := []int{0, 2, 1, 4, 3, 6, 5, 8, 7, 9, 11, 10, 13, 12, 15, 14, 17, 16, 19, 18}
	for _, i := range order {
		y := float64(i) * 1.1
		stub := 3.0 + float64(i%5)
		net := &design.Net{
			Name:      fmt.Sprintf("zz%d", i),
			Drivers:   []design.Pin{{Inst: fmt.Sprintf("U%d", i), Cell: buf, Pin: "Z", PosX: 0, PosY: y}},
			Receivers: []design.Pin{{Inst: fmt.Sprintf("L%d", i), Cell: lat, Pin: "D", PosX: 300, PosY: y}},
			Route: []design.Segment{
				{Layer: 2, X0: 0, Y0: y, X1: 300, Y1: y, Width: 0.6},
				{Layer: 1, X0: 0, Y0: y, X1: 0, Y1: y + stub, Width: 0.6},
				{Layer: 1, X0: 300, Y0: y, X1: 300, Y1: y - stub, Width: 0.6},
			},
		}
		d.AddNet(net)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	checkEquality(t, d, extract.DefaultFrontierSlackUM, prune.DefaultOptions())
	// The same order with a tiny slack must trip the frontier invariant.
	str := extract.NewStreamer(nil, 0.5)
	var ferr error
	for _, net := range d.Nets {
		if _, _, _, err := str.AddNet(net); err != nil {
			ferr = err
			break
		}
	}
	var fe *extract.FrontierError
	if !errors.As(ferr, &fe) {
		t.Fatalf("want FrontierError with slack 0.5, got %v", ferr)
	}
}

// TestStreamEqualityEmptyAndIsolatedNets covers nets that produce no
// coupling pieces at all: zero-length routes (pin-only stubs) and far-apart
// singles. They must be born retired, close as singleton components, and
// never surface as clusters.
func TestStreamEqualityEmptyAndIsolatedNets(t *testing.T) {
	buf, err := cells.Lookup("BUF_X4")
	if err != nil {
		t.Fatal(err)
	}
	d := design.New("sparse")
	for i := 0; i < 6; i++ {
		y := float64(i) * 500 // far beyond the 2.5 µm coupling window
		net := &design.Net{
			Name:    fmt.Sprintf("iso%d", i),
			Drivers: []design.Pin{{Inst: fmt.Sprintf("U%d", i), Cell: buf, Pin: "Z", PosX: 0, PosY: y}},
			Route:   []design.Segment{{Layer: 2, X0: 0, Y0: y, X1: 0, Y1: y, Width: 0.6}},
		}
		if i%2 == 1 {
			// Odd nets get a real (but isolated) wire.
			net.Route = []design.Segment{{Layer: 2, X0: 0, Y0: y, X1: 40, Y1: y, Width: 0.6}}
		}
		d.AddNet(net)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	comps := streamAll(t, d, extract.DefaultFrontierSlackUM, prune.DefaultOptions())
	if n := clusterCount(comps); n != 0 {
		t.Fatalf("isolated nets produced %d clusters", n)
	}
	if len(comps) != 6 {
		t.Fatalf("want 6 singleton components, got %d", len(comps))
	}
	checkEquality(t, d, extract.DefaultFrontierSlackUM, prune.DefaultOptions())
	// Zero-length nets must retire immediately: frontier stays one net deep
	// for the even (pin-only) arrivals.
	str := extract.NewStreamer(nil, extract.DefaultFrontierSlackUM)
	for _, net := range d.Nets {
		if _, _, _, err := str.AddNet(net); err != nil {
			t.Fatal(err)
		}
	}
	if peak := str.PeakLiveNets(); peak > 1 {
		t.Fatalf("isolated-net frontier peaked at %d live nets, want ≤ 1", peak)
	}
}

// TestStreamEqualityDSPChannel runs the full generator topology (bundles,
// buses, latches, clock spines, complementary pairs) through both paths at
// pruning settings that keep multi-net clusters.
func TestStreamEqualityDSPChannel(t *testing.T) {
	d, err := dsp.Generate(dsp.Config{
		Seed: 1999, Channels: 2, TracksPerChannel: 40, ChannelLengthUM: 200,
		BusFraction: 0.05, LatchFraction: 0.25, ComplementaryFraction: 0.2,
		ClockSpines: 1, TrackPitchUM: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := prune.DefaultOptions()
	opt.CapRatioThreshold = 0.03
	opt.MaxAggressors = 6
	checkEquality(t, d, extract.DefaultFrontierSlackUM, opt)

	// The bounded frontier must actually bound: live nets stay well below
	// the design size.
	str := extract.NewStreamer(nil, extract.DefaultFrontierSlackUM)
	for _, net := range d.Nets {
		if _, _, _, err := str.AddNet(net); err != nil {
			t.Fatal(err)
		}
	}
	if peak := str.PeakLiveNets(); peak >= len(d.Nets) {
		t.Fatalf("frontier never retired: peak %d of %d nets", peak, len(d.Nets))
	}
	if math.IsInf(extract.Unbounded, -1) {
		t.Fatal("Unbounded must be +Inf")
	}
}

// checkCouplingIndex compares p's per-net coupling index against a scan of
// p.Couplings: the same coupling indices for every net, and partner totals
// equal bit for bit to sums accumulated in a scan.
func checkCouplingIndex(t *testing.T, what string, p *extract.Parasitics) {
	t.Helper()
	scan := make([][]int32, len(p.Nets))
	sums := make([]map[int]float64, len(p.Nets))
	for i := range sums {
		sums[i] = make(map[int]float64)
	}
	for k, c := range p.Couplings {
		scan[c.NetA] = append(scan[c.NetA], int32(k))
		scan[c.NetB] = append(scan[c.NetB], int32(k))
		sums[c.NetA][c.NetB] += c.Farads
		sums[c.NetB][c.NetA] += c.Farads
	}
	for i := range p.Nets {
		if got := p.NetCouplings(i); fmt.Sprint(got) != fmt.Sprint(scan[i]) {
			t.Fatalf("%s: net %d couplings %v, scan finds %v", what, i, got, scan[i])
		}
		partners := p.AppendPartners(nil, i)
		if len(partners) != len(sums[i]) {
			t.Fatalf("%s: net %d has %d partners, scan finds %d", what, i, len(partners), len(sums[i]))
		}
		for k, pa := range partners {
			if k > 0 && partners[k-1].Net >= pa.Net {
				t.Fatalf("%s: net %d partners not ascending: %d then %d", what, i, partners[k-1].Net, pa.Net)
			}
			want, ok := sums[i][pa.Net]
			if !ok || math.Float64bits(pa.Farads) != math.Float64bits(want) {
				t.Fatalf("%s: net %d partner %d total %x, scan sums %x", what, i, pa.Net, math.Float64bits(pa.Farads), math.Float64bits(want))
			}
		}
	}
}

// TestCouplingIndexMatchesScan pins the per-net coupling index against a
// scan of the coupling list, on whole-chip parasitics and on every streamed
// component view, and checks that a component view's partner totals carry
// the whole-chip bits.
func TestCouplingIndexMatchesScan(t *testing.T) {
	d, err := dsp.Generate(dsp.Config{
		Seed: 1999, Channels: 6, TracksPerChannel: 30, ChannelLengthUM: 200,
		BusFraction: 0.05, LatchFraction: 0.25, ComplementaryFraction: 0.2,
		ClockSpines: 1, TrackPitchUM: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Couplings) == 0 {
		t.Fatal("design has no couplings")
	}
	checkCouplingIndex(t, "whole chip", p)

	opt := prune.DefaultOptions()
	opt.CapRatioThreshold = 0.03
	comps := streamAll(t, d, extract.DefaultFrontierSlackUM, opt)
	views := 0
	for _, c := range comps {
		if len(c.Clusters) == 0 {
			continue
		}
		views++
		what := fmt.Sprintf("component of net %d", c.Members[0])
		checkCouplingIndex(t, what, c.Par)
		members := c.Members
		for local, global := range members {
			got, want := c.Par.AppendPartners(nil, local), p.AppendPartners(nil, global)
			if len(got) != len(want) {
				t.Fatalf("%s: net %d has %d partners, whole chip %d", what, global, len(got), len(want))
			}
			for k := range got {
				if members[got[k].Net] != want[k].Net || math.Float64bits(got[k].Farads) != math.Float64bits(want[k].Farads) {
					t.Fatalf("%s: net %d partner %d: (%d, %g), whole chip (%d, %g)", what, global, k, members[got[k].Net], got[k].Farads, want[k].Net, want[k].Farads)
				}
			}
		}
	}
	if views < 2 {
		t.Fatalf("only %d streamed component views", views)
	}
	t.Logf("%d couplings, %d streamed component views", len(p.Couplings), views)
}
