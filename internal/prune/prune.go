// Package prune implements the paper's Section 3 front-end: filtering the
// extracted coupling graph down to the small clusters that deserve detailed
// analysis.
//
// Raw extraction couples almost everything to everything nearby — the paper
// reports clusters of about 105 nets on average before pruning. A
// capacitance-ratio rule (keep an aggressor only if its coupling into the
// victim is a meaningful fraction of the victim's total capacitance),
// optionally sharpened by timing-window overlap, decouples the weak
// aggressors (their coupling capacitance is grounded, staying conservative
// for loading) and leaves 2–5-net clusters.
package prune

import (
	"fmt"
	"slices"
	"sort"

	"xtverify/internal/circuit"
	"xtverify/internal/extract"
)

// Options controls pruning.
type Options struct {
	// CapRatioThreshold keeps aggressor a for victim v when
	// Cc(v,a)/Ctotal(v) ≥ threshold. Default 0.02.
	CapRatioThreshold float64
	// MinCouplingF is an absolute floor below which coupling is always
	// grounded. Default 0.5 fF.
	MinCouplingF float64
	// UseTimingWindows drops aggressors whose switching window cannot
	// overlap the victim's (the paper's timing correlation).
	UseTimingWindows bool
	// MaxAggressors caps the cluster size, keeping the strongest couplers.
	// 0 means unlimited.
	MaxAggressors int
}

// DefaultOptions returns the standard settings.
func DefaultOptions() Options {
	return Options{CapRatioThreshold: 0.02, MinCouplingF: 0.5e-15}
}

// RawClusters returns the connected components of the unpruned coupling
// graph, each as a sorted list of net indices (single-net components
// included). This is the "before pruning" population of the paper's
// statistics.
func RawClusters(p *extract.Parasitics) [][]int {
	n := len(p.Nets)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range p.Couplings {
		union(c.NetA, c.NetB)
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	// Emit components in sorted-root order, not map order. Each group is
	// already ascending (members were appended in index order), and its
	// root is not necessarily its minimum, so the final sort by first
	// element stays — but it now permutes a deterministic input.
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Aggressor describes one kept aggressor of a cluster.
type Aggressor struct {
	// Net is the aggressor net index.
	Net int
	// CouplingF is the total coupling capacitance into the victim.
	CouplingF float64
}

// Cluster is the pruned analysis unit for one victim net.
type Cluster struct {
	// Victim is the victim net index.
	Victim int
	// Aggressors are the kept aggressors, strongest first.
	Aggressors []Aggressor
	// DroppedF is the victim coupling capacitance that was grounded.
	DroppedF float64
	// KeptF is the victim coupling capacitance retained.
	KeptF float64
}

// Size returns the number of nets in the cluster (victim + aggressors).
func (c *Cluster) Size() int { return 1 + len(c.Aggressors) }

// PruneVictim applies the capacitance-ratio and timing rules for one victim.
func PruneVictim(p *extract.Parasitics, victim int, opt Options) *Cluster {
	var buf [8]extract.Partner
	cl, _ := pruneVictim(p, victim, opt, buf[:0])
	return cl
}

// pruneVictim is PruneVictim with a partner buffer that a loop over victims
// hands from one call to the next.
func pruneVictim(p *extract.Parasitics, victim int, opt Options, buf []extract.Partner) (*Cluster, []extract.Partner) {
	d := p.Design
	vNet := d.Nets[victim]
	// Partners come in net order with their couplings summed in Couplings
	// order, so the kept/dropped accumulations below are reproducible to
	// the last bit.
	partners := p.AppendPartners(buf[:0], victim)
	// Victim total capacitance: grounded plus all coupling.
	cTot := p.Nets[victim].TotalCapF()
	for _, pa := range partners {
		cTot += pa.Farads
	}
	cl := &Cluster{Victim: victim}
	for _, pa := range partners {
		a, f := pa.Net, pa.Farads
		keep := f >= opt.MinCouplingF && (cTot == 0 || f/cTot >= opt.CapRatioThreshold)
		if keep && opt.UseTimingWindows {
			if !vNet.Window.Overlaps(d.Nets[a].Window) {
				keep = false
			}
		}
		if keep {
			cl.Aggressors = append(cl.Aggressors, Aggressor{Net: a, CouplingF: f})
			cl.KeptF += f
		} else {
			cl.DroppedF += f
		}
	}
	sort.Slice(cl.Aggressors, func(i, j int) bool {
		if cl.Aggressors[i].CouplingF != cl.Aggressors[j].CouplingF {
			return cl.Aggressors[i].CouplingF > cl.Aggressors[j].CouplingF
		}
		return cl.Aggressors[i].Net < cl.Aggressors[j].Net
	})
	if opt.MaxAggressors > 0 && len(cl.Aggressors) > opt.MaxAggressors {
		for _, a := range cl.Aggressors[opt.MaxAggressors:] {
			cl.KeptF -= a.CouplingF
			cl.DroppedF += a.CouplingF
		}
		cl.Aggressors = cl.Aggressors[:opt.MaxAggressors]
	}
	return cl, partners
}

// Clusters prunes every eligible victim (non-clock nets with at least one
// kept aggressor).
func Clusters(p *extract.Parasitics, opt Options) []*Cluster {
	var out []*Cluster
	var buf []extract.Partner
	for i, net := range p.Design.Nets {
		if net.ClockNet {
			continue
		}
		var cl *Cluster
		cl, buf = pruneVictim(p, i, opt, buf)
		if len(cl.Aggressors) > 0 {
			out = append(out, cl)
		}
	}
	return out
}

// Stats summarizes pruning effectiveness, the paper's "105 nets before →
// 2 to 5 after" measurement.
type Stats struct {
	// RawClusters and RawMeanSize describe coupled components before
	// pruning (components of size ≥ 2).
	RawClusters int
	RawMeanSize float64
	// RawNetMeanSize is the size-weighted mean — the cluster size the
	// average coupled net finds itself in, which is how the paper's
	// "each cluster contained on average 105 nets" reads from a victim's
	// perspective.
	RawNetMeanSize float64
	RawMaxSize     int
	// PrunedClusters and PrunedMeanSize describe the per-victim clusters.
	PrunedClusters int
	PrunedMeanSize float64
	PrunedMaxSize  int
	// KeptCouplingFrac is the fraction of coupling capacitance retained.
	KeptCouplingFrac float64
}

// ComputeStats runs both phases and aggregates.
func ComputeStats(p *extract.Parasitics, opt Options) Stats {
	raw := RawClusters(p)
	rawSizes := make([]int, len(raw))
	for i, g := range raw {
		rawSizes[i] = len(g)
	}
	clusters := Clusters(p, opt)
	sizes := make([]int, len(clusters))
	var kept, dropped float64
	for i, cl := range clusters {
		sizes[i] = cl.Size()
		kept += cl.KeptF
		dropped += cl.DroppedF
	}
	s := Summarize(rawSizes, sizes)
	if kept+dropped > 0 {
		s.KeptCouplingFrac = kept / (kept + dropped)
	}
	return s
}

// Summarize computes a clustering's size statistics from the sizes of its
// raw coupled components (components of fewer than two nets are skipped) and
// of its pruned clusters. Every sum is integer-valued and so exact: the
// result does not depend on the order of either list, which is what lets a
// streamed run, seeing components in close order, reproduce a materialized
// run's bits. KeptCouplingFrac needs the clusters themselves and is left 0.
func Summarize(rawSizes, prunedSizes []int) Stats {
	var s Stats
	totalNets := 0
	sumSq := 0
	for _, n := range rawSizes {
		if n < 2 {
			continue
		}
		s.RawClusters++
		s.RawMeanSize += float64(n)
		totalNets += n
		sumSq += n * n
		if n > s.RawMaxSize {
			s.RawMaxSize = n
		}
	}
	if s.RawClusters > 0 {
		s.RawMeanSize /= float64(s.RawClusters)
	}
	if totalNets > 0 {
		s.RawNetMeanSize = float64(sumSq) / float64(totalNets)
	}
	for _, n := range prunedSizes {
		s.PrunedClusters++
		s.PrunedMeanSize += float64(n)
		if n > s.PrunedMaxSize {
			s.PrunedMaxSize = n
		}
	}
	if s.PrunedClusters > 0 {
		s.PrunedMeanSize /= float64(s.PrunedClusters)
	}
	return s
}

// BuildCircuit flattens a pruned cluster into the RC circuit handed to model
// order reduction: the members' WireCircuit, driver ports for every member
// driver pin and receiver ports on the victim.
//
// Port order: victim drivers first, then aggressor drivers in cluster order,
// then victim receivers. Each port's Net is its member-net position
// (0 = victim, 1.. = aggressors).
func BuildCircuit(p *extract.Parasitics, cl *Cluster) (*circuit.Circuit, error) {
	members := cl.MemberNets()
	ckt := WireCircuit(p, "cluster_"+p.Design.Nets[cl.Victim].Name, members)
	for pos, m := range members {
		for di, dn := range p.Nets[m].DriverNodes {
			ckt.AddPort(fmt.Sprintf("drv_%s_%d", p.Design.Nets[m].Name, di), ckt.Node(nodeName(p, m, dn)), circuit.PortDriver, pos)
		}
	}
	for ri, rn := range p.Nets[cl.Victim].ReceiverNodes {
		ckt.AddPort(fmt.Sprintf("rcv_%s_%d", p.Design.Nets[cl.Victim].Name, ri), ckt.Node(nodeName(p, cl.Victim, rn)), circuit.PortReceiver, 0)
	}
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("prune: cluster circuit invalid: %w", err)
	}
	return ckt, nil
}

// WireCircuit returns the RC network of nets without ports: each net's wire
// resistors and grounded capacitors, the couplings between two of the nets,
// and every coupling to any other net grounded at its end on the net that
// is listed. Nodes are created net by net in the order given, so the first
// net's node k is circuit node k. Couplings are added in Couplings order.
func WireCircuit(p *extract.Parasitics, name string, nets []int) *circuit.Circuit {
	ckt := circuit.New(name)
	for _, m := range nets {
		rc := p.Nets[m]
		netName := p.Design.Nets[m].Name
		for k := range rc.NodeX {
			ckt.Node(nodeName(p, m, k))
		}
		for ri, r := range rc.Res {
			ckt.AddResistor(fmt.Sprintf("R%s_%d", netName, ri), ckt.Node(nodeName(p, m, r.A)), ckt.Node(nodeName(p, m, r.B)), r.Ohms)
		}
		for k, c := range rc.CapF {
			if c > 0 {
				ckt.AddCapacitor(fmt.Sprintf("C%s_%d", netName, k), ckt.Node(nodeName(p, m, k)), circuit.Ground, c)
			}
		}
	}
	for _, ci := range netsCouplings(p, nets) {
		c := &p.Couplings[ci]
		aIn, bIn := slices.Contains(nets, c.NetA), slices.Contains(nets, c.NetB)
		switch {
		case aIn && bIn:
			// Coupling between two members. Victim↔aggressor couplings are
			// always retained; aggressor↔aggressor couplings are retained
			// too (they shape the aggressor waveforms).
			na := ckt.Node(nodeName(p, c.NetA, c.NodeA))
			nb := ckt.Node(nodeName(p, c.NetB, c.NodeB))
			ckt.AddCoupling(fmt.Sprintf("CC%d", ci), na, nb, c.Farads)
		case aIn:
			ckt.AddCapacitor(fmt.Sprintf("CCg%d", ci), ckt.Node(nodeName(p, c.NetA, c.NodeA)), circuit.Ground, c.Farads)
		default:
			ckt.AddCapacitor(fmt.Sprintf("CCg%d", ci), ckt.Node(nodeName(p, c.NetB, c.NodeB)), circuit.Ground, c.Farads)
		}
	}
	return ckt
}

func nodeName(p *extract.Parasitics, net, node int) string {
	return fmt.Sprintf("%s:%d", p.Design.Nets[net].Name, node)
}

// netsCouplings returns the indices of the couplings touching any of nets,
// ascending and each once — the order a scan of Couplings meets them.
func netsCouplings(p *extract.Parasitics, nets []int) []int32 {
	var idx []int32
	for _, m := range nets {
		idx = append(idx, p.NetCouplings(m)...)
	}
	slices.Sort(idx)
	return slices.Compact(idx)
}

// MemberNets returns the cluster's net indices, victim first.
func (c *Cluster) MemberNets() []int {
	out := make([]int, 1, c.Size())
	out[0] = c.Victim
	for _, a := range c.Aggressors {
		out = append(out, a.Net)
	}
	return out
}
