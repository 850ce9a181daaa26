// Package extract is the synthetic parasitic-extraction substrate: it turns
// routed net geometry into distributed RC networks with coupling capacitors,
// playing the role of the commercial extractor whose output ("RC equivalent
// circuit form, with millions of resistors and capacitors") feeds the
// paper's flow.
//
// Wires are segmented into ≤ MaxSegUM pieces; each piece contributes series
// resistance and grounded capacitance, and parallel same-layer pieces within
// the coupling window contribute coupling capacitance that falls off with
// spacing. Receiver pin input capacitance and driver output diffusion
// capacitance are attached at the pin nodes, matching the cell-based
// methodology (cell inputs are capacitive).
package extract

import (
	"fmt"
	"math"
	"slices"

	"xtverify/internal/design"
)

// Tech holds per-layer parasitic constants for the synthetic 0.25 µm
// process (DESIGN.md Section 6).
type Tech struct {
	Name string
	// ROhmPerUM is wire resistance per micrometer.
	ROhmPerUM float64
	// CgFPerUM is grounded capacitance per micrometer.
	CgFPerUM float64
	// Cc0FPerUM is the coupling capacitance per micrometer at minimum
	// spacing; it scales as MinSpacingUM/spacing.
	Cc0FPerUM float64
	// MinSpacingUM is the minimum (and typical) wire spacing.
	MinSpacingUM float64
	// MaxCoupleSpacingUM bounds the lateral coupling window.
	MaxCoupleSpacingUM float64
	// MaxSegUM is the maximum RC section length.
	MaxSegUM float64
	// Vdd is the supply voltage.
	Vdd float64
}

// Tech025 returns the default 0.25 µm constants. On a minimum-pitch parallel
// run the two-sided coupling is 0.16 fF/µm against 0.04 fF/µm to ground, i.e.
// capacitance to neighbours exceeds 70 % of total, matching the paper's
// deep-submicron premise.
func Tech025() *Tech {
	return &Tech{
		Name:               "synth025",
		ROhmPerUM:          0.12,
		CgFPerUM:           0.040e-15,
		Cc0FPerUM:          0.080e-15,
		MinSpacingUM:       0.6,
		MaxCoupleSpacingUM: 2.5,
		MaxSegUM:           25,
		Vdd:                3.0,
	}
}

// RElem is a resistor between two local node indices of a net.
type RElem struct {
	A, B int
	Ohms float64
}

// NetRC is the extracted view of one net.
type NetRC struct {
	Net *design.Net
	// NodeX, NodeY give each node's position (µm).
	NodeX, NodeY []float64
	// Res lists the wire resistances.
	Res []RElem
	// CapF is the grounded capacitance lumped at each node.
	CapF []float64
	// DriverNodes[i] is the node of Drivers[i]; ReceiverNodes likewise.
	DriverNodes, ReceiverNodes []int
}

// TotalCapF returns the net's total grounded capacitance.
func (n *NetRC) TotalCapF() float64 {
	s := 0.0
	for _, c := range n.CapF {
		s += c
	}
	return s
}

// Coupling is a coupling capacitor between nodes of two different nets.
type Coupling struct {
	NetA, NodeA int
	NetB, NodeB int
	Farads      float64
}

// Parasitics is the whole-design extraction result.
type Parasitics struct {
	Design *design.Design
	Tech   *Tech
	Nets   []*NetRC
	// Couplings lists all inter-net coupling capacitors in canonical
	// (NetA, NodeA, NetB, NodeB) order.
	Couplings []Coupling

	// netFirst and netCoup index Couplings by net: the couplings touching
	// net i are Couplings[k] for k in netCoup[netFirst[i]:netFirst[i+1]],
	// ascending.
	netFirst []int32
	netCoup  []int32
}

// NewParasitics assembles an extraction result: it sorts couplings into
// canonical order and indexes them by the nets they touch. Every Parasitics
// is built here, so whole-chip extractions and the streamed component views
// answer "which couplings touch net i" the same way.
func NewParasitics(d *design.Design, tech *Tech, nets []*NetRC, couplings []Coupling) *Parasitics {
	sortCouplings(couplings)
	p := &Parasitics{Design: d, Tech: tech, Nets: nets, Couplings: couplings}
	p.netFirst = make([]int32, len(nets)+1)
	for _, c := range couplings {
		p.netFirst[c.NetA+1]++
		p.netFirst[c.NetB+1]++
	}
	for i := range nets {
		p.netFirst[i+1] += p.netFirst[i]
	}
	p.netCoup = make([]int32, 2*len(couplings))
	next := append([]int32(nil), p.netFirst[:len(nets)]...)
	for k, c := range couplings {
		p.netCoup[next[c.NetA]] = int32(k)
		next[c.NetA]++
		p.netCoup[next[c.NetB]] = int32(k)
		next[c.NetB]++
	}
	return p
}

// NetCouplings returns the indices into Couplings of the couplings that
// touch net i, ascending — the order a scan of Couplings meets them. The
// slice is shared; callers must not modify it.
func (p *Parasitics) NetCouplings(i int) []int32 {
	return p.netCoup[p.netFirst[i]:p.netFirst[i+1]]
}

// Partner is one net coupled to another, with the total coupling
// capacitance between the two.
type Partner struct {
	Net    int
	Farads float64
}

// AppendPartners appends net i's coupling partners to buf in ascending net
// order and returns the extended slice. Each partner's total is summed in
// Couplings order, so it carries the same bits wherever it is computed.
func (p *Parasitics) AppendPartners(buf []Partner, i int) []Partner {
	start := len(buf)
	for _, k := range p.NetCouplings(i) {
		c := &p.Couplings[k]
		other := c.NetA
		if other == i {
			other = c.NetB
		}
		// Find other's place in the sorted partners appended so far; a net
		// has only a few, so a scan from the end beats a search.
		j := len(buf)
		for j > start && buf[j-1].Net > other {
			j--
		}
		if j == start || buf[j-1].Net != other {
			buf = slices.Insert(buf, j, Partner{Net: other})
			j++
		}
		buf[j-1].Farads += c.Farads
	}
	return buf
}

// piece is one ≤MaxSeg wire fragment prepared for coupling extraction, 48
// bytes: PieceBudget keeps its indices in range.
type piece struct {
	fixed  float64 // y for horizontal, x for vertical
	lo, hi float64 // varying-coordinate range (lo < hi)

	net, nodeLo, nodeHi int32
	layer               int32
	// seq is the piece's arrival sequence in its Streamer.
	seq        uint32
	horizontal bool
}

// Extract runs the extraction. It is the materialized front of the shared
// streaming kernel: every net is fed through a Streamer with an unbounded
// frontier, so the incremental path (Config.StreamIngest) and this one
// compute bit-identical parasitics. AddNet validates each net as it
// arrives, so the design itself only needs its pair check.
func Extract(d *design.Design, tech *Tech) (*Parasitics, error) {
	s := NewStreamer(tech, Unbounded)
	nets := make([]*NetRC, 0, len(d.Nets))
	var couplings []Coupling
	for _, net := range d.Nets {
		rc, final, _, err := s.AddNet(net)
		if err != nil {
			return nil, err
		}
		nets = append(nets, rc)
		couplings = append(couplings, final...)
	}
	s.Finish()
	if err := d.ValidatePairs(); err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	return NewParasitics(d, s.tech, nets, couplings), nil
}

const snap = 0.005 // µm position-snapping grid for node merging

func key(x, y float64) [2]int64 {
	return [2]int64{int64(math.Round(x / snap)), int64(math.Round(y / snap))}
}

// extractNet segments one net and returns its RC plus coupling pieces.
func extractNet(net *design.Net, tech *Tech) (*NetRC, []piece) {
	rc := &NetRC{Net: net}
	nodeAt := make(map[[2]int64]int)
	getNode := func(x, y float64) int {
		k := key(x, y)
		if id, ok := nodeAt[k]; ok {
			return id
		}
		id := len(rc.NodeX)
		rc.NodeX = append(rc.NodeX, x)
		rc.NodeY = append(rc.NodeY, y)
		rc.CapF = append(rc.CapF, 0)
		nodeAt[k] = id
		return id
	}
	var pieces []piece
	for _, seg := range net.Route {
		length := seg.Length()
		if length == 0 {
			getNode(seg.X0, seg.Y0)
			continue
		}
		nPieces := int(math.Ceil(length / tech.MaxSegUM))
		for k := 0; k < nPieces; k++ {
			f0 := float64(k) / float64(nPieces)
			f1 := float64(k+1) / float64(nPieces)
			x0 := seg.X0 + (seg.X1-seg.X0)*f0
			y0 := seg.Y0 + (seg.Y1-seg.Y0)*f0
			x1 := seg.X0 + (seg.X1-seg.X0)*f1
			y1 := seg.Y0 + (seg.Y1-seg.Y0)*f1
			a := getNode(x0, y0)
			b := getNode(x1, y1)
			pl := length / float64(nPieces)
			rc.Res = append(rc.Res, RElem{A: a, B: b, Ohms: tech.ROhmPerUM * pl})
			half := tech.CgFPerUM * pl / 2
			rc.CapF[a] += half
			rc.CapF[b] += half
			pc := piece{net: int32(net.Index), nodeLo: int32(a), nodeHi: int32(b), layer: int32(seg.Layer), horizontal: seg.Horizontal()}
			if pc.horizontal {
				pc.fixed = y0
				pc.lo, pc.hi = math.Min(x0, x1), math.Max(x0, x1)
				if x1 < x0 {
					pc.nodeLo, pc.nodeHi = pc.nodeHi, pc.nodeLo
				}
			} else {
				pc.fixed = x0
				pc.lo, pc.hi = math.Min(y0, y1), math.Max(y0, y1)
				if y1 < y0 {
					pc.nodeLo, pc.nodeHi = pc.nodeHi, pc.nodeLo
				}
			}
			pieces = append(pieces, pc)
		}
	}
	// Attach pins at their nearest nodes, with their capacitances.
	nearest := func(x, y float64) int {
		best, bestD := 0, math.Inf(1)
		for i := range rc.NodeX {
			d := (rc.NodeX[i]-x)*(rc.NodeX[i]-x) + (rc.NodeY[i]-y)*(rc.NodeY[i]-y)
			if d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	for _, pin := range net.Drivers {
		n := nearest(pin.PosX, pin.PosY)
		rc.DriverNodes = append(rc.DriverNodes, n)
		rc.CapF[n] += pin.Cell.OutDiffCapF
	}
	for _, pin := range net.Receivers {
		n := nearest(pin.PosX, pin.PosY)
		rc.ReceiverNodes = append(rc.ReceiverNodes, n)
		rc.CapF[n] += pin.Cell.InputCapF
	}
	return rc, pieces
}

// Stats summarizes an extraction.
type Stats struct {
	Nets         int
	Nodes        int
	Resistors    int
	GroundCaps   int
	Couplings    int
	TotalCapF    float64
	CouplingF    float64
	CouplingFrac float64
}

// Stats computes extraction statistics; CouplingFrac is coupling as a
// fraction of total capacitance (the paper cites >70 % for DSM designs).
func (p *Parasitics) Stats() Stats {
	var s Stats
	s.Nets = len(p.Nets)
	for _, n := range p.Nets {
		s.Nodes += len(n.NodeX)
		s.Resistors += len(n.Res)
		for _, c := range n.CapF {
			if c > 0 {
				s.GroundCaps++
			}
			s.TotalCapF += c
		}
	}
	for _, c := range p.Couplings {
		s.Couplings++
		s.CouplingF += c.Farads
	}
	s.TotalCapF += s.CouplingF
	if s.TotalCapF > 0 {
		s.CouplingFrac = s.CouplingF / s.TotalCapF
	}
	return s
}
