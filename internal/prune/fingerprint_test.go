package prune

import (
	"testing"

	"xtverify/internal/sta"
)

// TestInputSignatureCertifiesCircuit is the soundness contract the reverify
// layer leans on: whenever two clusters' input fingerprints agree, the
// circuits BuildCircuit assembles for them must have equal structural
// fingerprints — reusing one's analysis for the other is then exact. The
// reverse direction (equal circuits, equal inputs) is also checked on this
// design: the input form should not be so over-strict that the bus-pattern
// sharing Fingerprint was designed for is lost.
func TestInputSignatureCertifiesCircuit(t *testing.T) {
	p := extracted(t, channelCfg(7, 80))
	if err := sta.Annotate(p.Design, p); err != nil {
		t.Fatal(err)
	}
	cls := Clusters(p, Options{CapRatioThreshold: 0.02, MinCouplingF: 0.5e-15, MaxAggressors: 6})
	if len(cls) < 20 {
		t.Fatalf("only %d clusters; design too small for a pair census", len(cls))
	}
	inputs := make([]string, len(cls))
	circuits := make([]string, len(cls))
	for i, cl := range cls {
		inputs[i] = string(AppendInputSignature(nil, p, cl))
		ckt, err := BuildCircuit(p, cl)
		if err != nil {
			t.Fatal(err)
		}
		circuits[i] = Fingerprint(ckt, 0, 0, false)
	}
	sharedPairs := 0
	for i := range cls {
		for j := i + 1; j < len(cls); j++ {
			inEq := inputs[i] == inputs[j]
			cktEq := circuits[i] == circuits[j]
			if inEq && !cktEq {
				t.Fatalf("clusters %d/%d: equal input fingerprints but different circuits (unsound reuse)", i, j)
			}
			if cktEq && !inEq {
				t.Errorf("clusters %d/%d: equal circuits but different input fingerprints (lost sharing)", i, j)
			}
			if inEq {
				sharedPairs++
			}
		}
	}
	t.Logf("%d clusters, %d structurally shared pairs", len(cls), sharedPairs)
}

// TestInputSignatureSensitivity mutates single circuit inputs and expects the
// fingerprint to move: a resistance, a grounded cap, a coupling value, and a
// node-count change must all be visible, or reuse could splice a stale
// result over a real edit.
func TestInputSignatureSensitivity(t *testing.T) {
	p := extracted(t, channelCfg(9, 40))
	if err := sta.Annotate(p.Design, p); err != nil {
		t.Fatal(err)
	}
	cls := Clusters(p, Options{CapRatioThreshold: 0.02, MinCouplingF: 0.5e-15, MaxAggressors: 6})
	if len(cls) == 0 {
		t.Fatal("no clusters")
	}
	cl := cls[0]
	orig := string(AppendInputSignature(nil, p, cl))

	mutate := func(name string, apply, undo func()) {
		apply()
		got := string(AppendInputSignature(nil, p, cl))
		undo()
		if got == orig {
			t.Errorf("%s: fingerprint unchanged", name)
		}
		if back := string(AppendInputSignature(nil, p, cl)); back != orig {
			t.Fatalf("%s: undo did not restore the fingerprint", name)
		}
	}

	rc := p.Nets[cl.Victim]
	if len(rc.Res) > 0 {
		old := rc.Res[0].Ohms
		mutate("victim resistance", func() { rc.Res[0].Ohms *= 1.0000001 }, func() { rc.Res[0].Ohms = old })
	}
	if len(rc.CapF) > 0 {
		old := rc.CapF[0]
		mutate("victim grounded cap", func() { rc.CapF[0] += 1e-18 }, func() { rc.CapF[0] = old })
	}
	for ci := range p.Couplings {
		c := &p.Couplings[ci]
		if c.NetA == cl.Victim || c.NetB == cl.Victim {
			old := c.Farads
			mutate("victim coupling value", func() { c.Farads *= 1.0000001 }, func() { c.Farads = old })
			break
		}
	}
	oldX := rc.NodeX
	mutate("victim node count",
		func() { rc.NodeX = append(append([]float64{}, oldX...), 0) },
		func() { rc.NodeX = oldX })
}
