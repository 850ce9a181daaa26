package deflite

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"xtverify/internal/design"
	"xtverify/internal/dsp"
)

// validatingSink is the streamed front end as the streaming ingest path
// drives it: every net must pass design.ValidateNet.
type validatingSink struct{}

func (validatingSink) StartDesign(string) error { return nil }

func (validatingSink) AddNet(n *design.Net) error { return design.ValidateNet(n) }

// FuzzDEF throws arbitrary bytes at the DEF front end. Read and a streamed
// parse with per-net validation must agree on accept or reject, every Read
// rejection must be a typed *ParseError, and an accepted design may carry
// only finite widths, and only coordinates and pin positions within
// ±design.MaxCoordUM. Extraction is left out: the coordinate bound and
// extract.PieceBudget keep its indices exact and stop a net that would cut
// into billions of pieces, but a design within both may still ask for
// gigabytes.
func FuzzDEF(f *testing.F) {
	d, err := dsp.ParallelWires(2, 60, 1.2, []string{"INV_X2"}, "LATCH_X1")
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, tc := range malformedDEF {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		streamErr := StreamRead(bytes.NewReader(data), validatingSink{})
		if (err == nil) != (streamErr == nil) {
			t.Fatalf("Read and StreamRead disagree: %v vs %v", err, streamErr)
		}
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Read error %T (%v) is not a *ParseError", err, err)
			}
			return
		}
		inBound := func(v ...float64) bool {
			for _, x := range v {
				if !(math.Abs(x) <= design.MaxCoordUM) {
					return false
				}
			}
			return true
		}
		for _, n := range got.Nets {
			for _, s := range n.Route {
				if !inBound(s.X0, s.Y0, s.X1, s.Y1) || math.IsNaN(s.Width) || math.IsInf(s.Width, 0) {
					t.Fatalf("net %q accepted with segment %+v", n.Name, s)
				}
			}
			for _, p := range append(append([]design.Pin(nil), n.Drivers...), n.Receivers...) {
				if !inBound(p.PosX, p.PosY) {
					t.Fatalf("net %q accepted with pin %s at (%g, %g)", n.Name, p.Inst, p.PosX, p.PosY)
				}
			}
		}
	})
}
