package prune

import (
	"encoding/binary"
	"math"
	"slices"

	"xtverify/internal/circuit"
	"xtverify/internal/extract"
)

// Fingerprint serializes the structure of a built cluster circuit — node
// count, resistor and capacitor topology with exact element values, and port
// wiring in declaration order — together with the analysis parameters that
// select a reduction (grounding conductance, reduced order, decoupling).
//
// The key is canonical up to renaming: node indices and element order come
// from BuildCircuit's deterministic net-traversal order, while net and node
// NAMES are deliberately excluded. Two clusters that are structurally
// identical (the common case on buses and datapaths, where parallel routes
// repeat the same RC pattern) therefore produce the same fingerprint and can
// share one SyMPVL reduction. Element values are folded in at full float64
// precision, so "almost identical" clusters never collide.
func Fingerprint(ckt *circuit.Circuit, gmin float64, order int, decoupled bool) string {
	buf := make([]byte, 0, 8*(5+3*len(ckt.Resistors)+4*len(ckt.Capacitors)+3*len(ckt.Ports)))
	var w [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	putI := func(v int) { putU(uint64(v)) }
	putF := func(v float64) { putU(math.Float64bits(v)) }

	putI(ckt.NumNodes())
	putI(len(ckt.Resistors))
	for _, r := range ckt.Resistors {
		putI(int(r.A))
		putI(int(r.B))
		putF(r.Ohms)
	}
	putI(len(ckt.Capacitors))
	for _, c := range ckt.Capacitors {
		putI(int(c.A))
		putI(int(c.B))
		putF(c.Farads)
		if c.Coupling {
			putI(1)
		} else {
			putI(0)
		}
	}
	putI(len(ckt.Ports))
	for _, p := range ckt.Ports {
		putI(int(p.Node))
		putI(int(p.Kind))
		putI(p.Net)
	}
	putF(gmin)
	putI(order)
	if decoupled {
		putI(1)
	} else {
		putI(0)
	}
	return string(buf)
}

// AppendInputSignature appends the fingerprint of cl's circuit, computed
// from BuildCircuit's inputs without building it, to buf and returns it.
// BuildCircuit is a deterministic function of the parasitics and the
// cluster, so serializing exactly what it reads — member wire RC, ports, and
// the couplings it would retain or ground, in the order it would add them —
// certifies the built circuit element-for-element (up to names, which the
// analysis never reads). Equal input serializations therefore imply
// bit-equal analysis results, the same guarantee Fingerprint gives over the
// built circuit, without paying for node names and element lists.
//
// Like Fingerprint, the serialization is canonical up to renaming: nets are
// identified by member position (victim first, aggressors in cluster order)
// and nodes by per-net index, never by name. Couplings to non-members are
// reduced to the member-side endpoint and value — all BuildCircuit keeps of
// them — so edits elsewhere in the design cannot defeat reuse.
func AppendInputSignature(buf []byte, p *extract.Parasitics, cl *Cluster) []byte {
	var w [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	putI := func(v int) { putU(uint64(int64(v))) }
	putF := func(v float64) { putU(math.Float64bits(v)) }

	members := cl.MemberNets()
	putI(len(members))
	for pos, m := range members {
		rc := p.Nets[m]
		putI(len(rc.NodeX))
		putI(len(rc.Res))
		for _, r := range rc.Res {
			putI(r.A)
			putI(r.B)
			putF(r.Ohms)
		}
		putI(len(rc.CapF))
		for _, c := range rc.CapF {
			putF(c)
		}
		putI(len(rc.DriverNodes))
		for _, dn := range rc.DriverNodes {
			putI(dn)
		}
		if pos == 0 {
			putI(len(rc.ReceiverNodes))
			for _, rn := range rc.ReceiverNodes {
				putI(rn)
			}
		}
	}
	// Couplings touching any member, in WireCircuit's order. Only the
	// content BuildCircuit keeps is serialized — never the global index,
	// which shifts with unrelated edits elsewhere in the design.
	idxs := netsCouplings(p, members)
	putI(len(idxs))
	for _, ci := range idxs {
		c := &p.Couplings[ci]
		posA := slices.Index(members, c.NetA)
		posB := slices.Index(members, c.NetB)
		switch {
		case posA >= 0 && posB >= 0:
			// Retained member↔member coupling: both endpoints matter.
			putI(0)
			putI(posA)
			putI(c.NodeA)
			putI(posB)
			putI(c.NodeB)
		case posA >= 0:
			// Grounded at the member endpoint; the far net's identity never
			// reaches the circuit.
			putI(1)
			putI(posA)
			putI(c.NodeA)
		default:
			putI(1)
			putI(posB)
			putI(c.NodeB)
		}
		putF(c.Farads)
	}
	return buf
}
