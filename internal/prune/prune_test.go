package prune

import (
	"testing"

	"xtverify/internal/dsp"
	"xtverify/internal/extract"
	"xtverify/internal/sta"
)

func extracted(t *testing.T, cfg dsp.Config) *extract.Parasitics {
	t.Helper()
	d, err := dsp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func channelCfg(seed int64, tracks int) dsp.Config {
	return dsp.Config{Seed: seed, Channels: 1, TracksPerChannel: tracks,
		ChannelLengthUM: 1500, BusFraction: 0.05, LatchFraction: 0.2, ClockSpines: 1}
}

func TestRawClustersCoverAllNets(t *testing.T) {
	p := extracted(t, channelCfg(1, 40))
	raw := RawClusters(p)
	total := 0
	seen := map[int]bool{}
	for _, g := range raw {
		total += len(g)
		for _, n := range g {
			if seen[n] {
				t.Fatalf("net %d in two clusters", n)
			}
			seen[n] = true
		}
	}
	if total != len(p.Nets) {
		t.Errorf("raw clusters cover %d of %d nets", total, len(p.Nets))
	}
}

func TestChannelFormsLargeRawCluster(t *testing.T) {
	// A 105-track channel couples transitively into a large component,
	// reproducing the paper's ~105-net pre-pruning clusters.
	p := extracted(t, channelCfg(2, 105))
	raw := RawClusters(p)
	max := 0
	for _, g := range raw {
		if len(g) > max {
			max = len(g)
		}
	}
	if max < 30 {
		t.Errorf("largest raw cluster %d nets; expected the channel to couple broadly", max)
	}
}

func TestPruningShrinksClusters(t *testing.T) {
	p := extracted(t, channelCfg(3, 105))
	s := ComputeStats(p, DefaultOptions())
	if s.RawMeanSize < 5 || s.RawMaxSize < 50 {
		t.Errorf("raw clusters too small: mean %.1f max %d", s.RawMeanSize, s.RawMaxSize)
	}
	if s.PrunedMeanSize < 2 || s.PrunedMeanSize > 8 {
		t.Errorf("pruned mean cluster size %.1f outside the paper's 2–5 regime (raw %.1f)",
			s.PrunedMeanSize, s.RawMeanSize)
	}
	if s.PrunedMeanSize >= s.RawMeanSize {
		t.Error("pruning did not shrink clusters")
	}
	if s.KeptCouplingFrac <= 0 || s.KeptCouplingFrac > 1 {
		t.Errorf("kept coupling fraction %g", s.KeptCouplingFrac)
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	p := extracted(t, channelCfg(4, 60))
	loose := ComputeStats(p, Options{CapRatioThreshold: 0.005, MinCouplingF: 0.1e-15})
	tight := ComputeStats(p, Options{CapRatioThreshold: 0.10, MinCouplingF: 0.1e-15})
	if tight.PrunedMeanSize > loose.PrunedMeanSize {
		t.Errorf("tighter threshold grew clusters: %.2f vs %.2f", tight.PrunedMeanSize, loose.PrunedMeanSize)
	}
}

func TestTimingWindowPruning(t *testing.T) {
	d, err := dsp.Generate(channelCfg(5, 60))
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	if err := sta.Annotate(d, p); err != nil {
		t.Fatal(err)
	}
	base := Options{CapRatioThreshold: 0.01, MinCouplingF: 0.1e-15}
	withTW := base
	withTW.UseTimingWindows = true
	nBase, nTW := 0, 0
	for _, cl := range Clusters(p, base) {
		nBase += len(cl.Aggressors)
	}
	for _, cl := range Clusters(p, withTW) {
		nTW += len(cl.Aggressors)
	}
	if nTW > nBase {
		t.Errorf("timing windows added aggressors: %d vs %d", nTW, nBase)
	}
}

func TestMaxAggressorsCap(t *testing.T) {
	p := extracted(t, channelCfg(6, 80))
	opt := Options{CapRatioThreshold: 0.001, MinCouplingF: 0.01e-15, MaxAggressors: 3}
	for _, cl := range Clusters(p, opt) {
		if len(cl.Aggressors) > 3 {
			t.Fatalf("cluster exceeds cap: %d aggressors", len(cl.Aggressors))
		}
		// Strongest-first ordering.
		for i := 1; i < len(cl.Aggressors); i++ {
			if cl.Aggressors[i].CouplingF > cl.Aggressors[i-1].CouplingF {
				t.Fatal("aggressors not sorted by coupling")
			}
		}
	}
}

func TestClockNetsNotVictims(t *testing.T) {
	p := extracted(t, channelCfg(7, 40))
	for _, cl := range Clusters(p, DefaultOptions()) {
		if p.Design.Nets[cl.Victim].ClockNet {
			t.Fatalf("clock net %s analyzed as victim", p.Design.Nets[cl.Victim].Name)
		}
	}
}

func TestBuildCircuitStructure(t *testing.T) {
	p := extracted(t, channelCfg(8, 60))
	cls := Clusters(p, DefaultOptions())
	if len(cls) == 0 {
		t.Fatal("no clusters")
	}
	// Find a multi-aggressor cluster.
	var cl *Cluster
	for _, c := range cls {
		if len(c.Aggressors) >= 2 {
			cl = c
			break
		}
	}
	if cl == nil {
		cl = cls[0]
	}
	ckt, err := BuildCircuit(p, cl)
	if err != nil {
		t.Fatal(err)
	}
	// One driver port per member driver pin; victim receivers as ports.
	wantDrivers := len(p.Design.Nets[cl.Victim].Drivers)
	for _, a := range cl.Aggressors {
		wantDrivers += len(p.Design.Nets[a.Net].Drivers)
	}
	gotDrivers := len(ckt.DriverPorts())
	if gotDrivers != wantDrivers {
		t.Errorf("driver ports %d, want %d", gotDrivers, wantDrivers)
	}
	st := ckt.Stats()
	if st.CouplingCap == 0 {
		t.Error("cluster circuit lost its couplings")
	}
	// Conservation: every victim coupling is either kept as a coupler or
	// grounded — total capacitance must not shrink.
	if st.TotalCapF <= 0 {
		t.Error("no capacitance in cluster")
	}
}

func TestBuildCircuitGroundsExternalCoupling(t *testing.T) {
	p := extracted(t, channelCfg(9, 60))
	cls := Clusters(p, Options{CapRatioThreshold: 0.05, MinCouplingF: 0.5e-15})
	for _, cl := range cls {
		if cl.DroppedF == 0 {
			continue
		}
		ckt, err := BuildCircuit(p, cl)
		if err != nil {
			t.Fatal(err)
		}
		// The circuit retains couplings only among members.
		members := map[string]bool{}
		for _, m := range cl.MemberNets() {
			members[p.Design.Nets[m].Name] = true
		}
		for _, cap := range ckt.Capacitors {
			if cap.Coupling && cap.B == -1 {
				t.Error("coupling capacitor to ground")
			}
		}
		return
	}
	t.Skip("no cluster with dropped coupling")
}

func TestMemberNetsOrder(t *testing.T) {
	cl := &Cluster{Victim: 5, Aggressors: []Aggressor{{Net: 2}, {Net: 9}}}
	m := cl.MemberNets()
	if m[0] != 5 || m[1] != 2 || m[2] != 9 {
		t.Errorf("MemberNets = %v", m)
	}
	if cl.Size() != 3 {
		t.Errorf("Size = %d", cl.Size())
	}
}
