package xtverify

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"xtverify/internal/deflite"
	"xtverify/internal/extract"
)

// emittedUnit is what a cluster source hands the executor for one victim,
// reduced to names and raw float bits so two sources compare exactly.
type emittedUnit struct {
	victim     int
	name       string
	aggressors []string
	// partners names every net coupled to the victim, in the view's order.
	partners []string
	// floats holds KeptF, DroppedF, every aggressor's CouplingF, the
	// victim's TotalCapF and every partner's coupling Farads.
	floats []uint64
}

// collectUnits returns an emit function that records every unit.
func collectUnits(out *[]emittedUnit) emitFunc {
	return func(victim int, u clusterUnit) error {
		c := emittedUnit{
			victim: victim,
			name:   u.des.Nets[u.cl.Victim].Name,
			floats: []uint64{math.Float64bits(u.cl.KeptF), math.Float64bits(u.cl.DroppedF)},
		}
		for _, a := range u.cl.Aggressors {
			c.aggressors = append(c.aggressors, u.des.Nets[a.Net].Name)
			c.floats = append(c.floats, math.Float64bits(a.CouplingF))
		}
		c.floats = append(c.floats, math.Float64bits(u.par.Nets[u.cl.Victim].TotalCapF()))
		for _, pa := range u.par.AppendPartners(nil, u.cl.Victim) {
			c.partners = append(c.partners, u.des.Nets[pa.Net].Name)
			c.floats = append(c.floats, math.Float64bits(pa.Farads))
		}
		*out = append(*out, c)
		return nil
	}
}

// rawComponents returns a source's raw component sizes of two nets or more,
// sorted: the materialized source lists every component, the streamed one
// only those.
func rawComponents(info sourceInfo) []int {
	var out []int
	for _, n := range info.rawSizes {
		if n >= 2 {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// FuzzClusterSources feeds the same DEF bytes to a materialized and a
// streamed verifier and holds the two cluster sources to the same output,
// once per cluster and once per net (runParams.perNet): the same victims in
// the same global order, each with the same name, aggressor names in the
// same order, the same kept, dropped and per-aggressor coupling bits, the
// same total-capacitance bits and the same partners with the same coupling
// bits; and the same design name, net count and raw component sizes. Per
// net, the victims must be exactly the design's non-clock nets. A
// materialized rejection must also fail the streamed side; a failure on the
// streamed side alone must be the frontier invariant, which only the
// streamed ingest imposes. It stops at units: an analysis per input would
// leave the fuzzer almost no executions.
func FuzzClusterSources(f *testing.F) {
	// Small seeds: the fuzzer minimizes every input that finds new
	// coverage, and that takes time proportional to the input's size.
	for _, dsp := range []DSPConfig{
		{Seed: 3, Channels: 1, TracksPerChannel: 4, ChannelLengthUM: 20, BusFraction: 0.5, ClockSpines: 1},
		{Seed: 4, Channels: 2, TracksPerChannel: 3, ChannelLengthUM: 15, LatchFraction: 0.5},
	} {
		v, err := NewVerifierFromDSP(dsp, Config{})
		if err != nil {
			f.Fatal(err)
		}
		var sb strings.Builder
		if err := v.WriteDEF(&sb); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(sb.String()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Extraction cost grows with wire length; bound it so every
		// execution stays short.
		if d, err := deflite.Read(bytes.NewReader(data)); err == nil {
			total := 0.0
			for _, n := range d.Nets {
				for _, s := range n.Route {
					total += math.Abs(s.X1-s.X0) + math.Abs(s.Y1-s.Y0)
				}
			}
			if total > 1e5 {
				t.Skip("route longer than 1e5 µm")
			}
		}
		mv, merr := NewVerifierFromDEF(bytes.NewReader(data), Config{})
		for _, perNet := range []bool{false, true} {
			sv, err := NewVerifierFromDEF(bytes.NewReader(data), Config{StreamIngest: true})
			if err != nil {
				t.Fatal(err)
			}
			var streamed []emittedUnit
			sinfo, serr := sv.streamClusters(context.Background(), perNet, collectUnits(&streamed))
			if merr != nil {
				if serr == nil {
					t.Fatalf("materialized rejected the input (%v), streamed accepted it", merr)
				}
				return
			}
			if serr != nil {
				var fe *extract.FrontierError
				if !errors.As(serr, &fe) {
					t.Fatalf("streamed alone failed with %T (%v), want *extract.FrontierError", serr, serr)
				}
				return
			}
			var mat []emittedUnit
			minfo, err := mv.materializedClusters(perNet, collectUnits(&mat))
			if err != nil {
				t.Fatal(err)
			}
			if sinfo.name != minfo.name || sinfo.nets != minfo.nets {
				t.Fatalf("streamed design %q with %d nets, materialized %q with %d", sinfo.name, sinfo.nets, minfo.name, minfo.nets)
			}
			if s, m := rawComponents(sinfo), rawComponents(minfo); !slices.Equal(s, m) {
				t.Fatalf("raw component sizes: streamed %v, materialized %v", s, m)
			}
			if perNet {
				var want []int
				for i, n := range mv.des.Nets {
					if !n.ClockNet {
						want = append(want, i)
					}
				}
				got := make([]int, len(mat))
				for i, m := range mat {
					got[i] = m.victim
				}
				if !slices.Equal(got, want) {
					t.Fatalf("materialized per-net units for nets %v, want the non-clock nets %v", got, want)
				}
			}
			slices.SortFunc(streamed, func(a, b emittedUnit) int { return a.victim - b.victim })
			if len(streamed) != len(mat) {
				t.Fatalf("perNet=%t: streamed %d units, materialized %d", perNet, len(streamed), len(mat))
			}
			for i, m := range mat {
				s := streamed[i]
				if s.victim != m.victim || s.name != m.name ||
					!slices.Equal(s.aggressors, m.aggressors) || !slices.Equal(s.partners, m.partners) ||
					!slices.Equal(s.floats, m.floats) {
					t.Fatalf("perNet=%t: unit %d: streamed %+v, materialized %+v", perNet, i, s, m)
				}
			}
		}
	})
}
