// Streaming cluster discovery: a union-find over the live ingest frontier
// that closes coupled components the moment their last member retires and
// prunes them into analysis-ready clusters — without ever holding the whole
// chip's parasitics.
//
// Identity with the materialized path is structural, not approximate. A
// closed component carries every net and every coupling that can influence
// its victims (couplings never cross components), its nets are renumbered by
// a monotone map (ascending global index → ascending local index), and its
// couplings keep the canonical global sort order. PruneVictim's partner
// iteration, the aggressor ordering tie-breaks, and BuildCircuit's coupling
// walk therefore visit values in exactly the order the whole-chip
// computation would, so every float accumulation — kept/dropped totals,
// node caps, MNA stamps — reproduces bit for bit.
package prune

import (
	"fmt"
	"sort"

	"xtverify/internal/design"
	"xtverify/internal/extract"
)

// ClosedComponent is one coupled component whose last member retired.
type ClosedComponent struct {
	// Members lists the component's global net indices, ascending — the
	// local index of a net in the component-scoped parasitics is its
	// position here.
	Members []int
	// Par is the component-scoped parasitics; Par.Design is the
	// component-scoped design, its nets renumbered 0..n-1 in ascending
	// global order.
	Par *extract.Parasitics
	// Clusters holds the component's pruned clusters in local indices
	// (victim Members[cl.Victim]), ascending; empty when pruning kept no
	// aggressor for any member.
	Clusters []*Cluster
}

// netEntry is the retained state for one live (or closed-pending) net.
type netEntry struct {
	net *design.Net
	rc  *extract.NetRC
	// comp lists complementary partners in mark order.
	comp []int
}

// StreamClusterer consumes the extract.Streamer's per-net output and emits
// closed components eagerly. Memory is O(live components): a net's state is
// dropped the moment its component closes.
type StreamClusterer struct {
	opt        Options
	tech       *extract.Tech
	designName string

	entries map[int]*netEntry
	parent  map[int]int
	comps   map[int]*ufComponent
}

type ufComponent struct {
	members   []int
	couplings []extract.Coupling
	live      int
}

// NewStreamClusterer returns a clusterer for one streamed run. designName
// and tech are stamped onto every component-scoped design/parasitics.
func NewStreamClusterer(designName string, tech *extract.Tech, opt Options) *StreamClusterer {
	if tech == nil {
		tech = extract.Tech025()
	}
	return &StreamClusterer{
		opt:        opt,
		tech:       tech,
		designName: designName,
		entries:    make(map[int]*netEntry),
		parent:     make(map[int]int),
		comps:      make(map[int]*ufComponent),
	}
}

// SetDesignName renames the design stamped onto component-scoped views —
// for callers (the DEF streaming path) that learn the name from the input
// header after construction. Must be called before the first component
// closes.
func (s *StreamClusterer) SetDesignName(name string) { s.designName = name }

func (s *StreamClusterer) find(x int) int {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// AddNet admits one net together with the couplings its arrival finalized
// (both straight from extract.Streamer.AddNet).
func (s *StreamClusterer) AddNet(net *design.Net, rc *extract.NetRC, final []extract.Coupling) {
	idx := net.Index
	s.entries[idx] = &netEntry{net: net, rc: rc}
	s.parent[idx] = idx
	s.comps[idx] = &ufComponent{members: []int{idx}, live: 1}
	for _, c := range final {
		ra, rb := s.find(c.NetA), s.find(c.NetB)
		if ra != rb {
			// Union by member count; the merged order is irrelevant — a
			// closing component re-sorts members and couplings.
			ca, cb := s.comps[ra], s.comps[rb]
			if len(ca.members) < len(cb.members) {
				ra, rb, ca, cb = rb, ra, cb, ca
			}
			s.parent[rb] = ra
			ca.members = append(ca.members, cb.members...)
			ca.couplings = append(ca.couplings, cb.couplings...)
			ca.live += cb.live
			delete(s.comps, rb)
		}
		root := s.find(c.NetA)
		s.comps[root].couplings = append(s.comps[root].couplings, c)
	}
}

// MarkComplementary records a Q/QN pair. Pairs whose members land in
// different components are irrelevant (logic correlation is only consulted
// within a cluster) and are dropped silently, as are pairs naming nets that
// already retired into a closed — necessarily disjoint — component.
func (s *StreamClusterer) MarkComplementary(a, b int) {
	ea, eb := s.entries[a], s.entries[b]
	if ea == nil || eb == nil {
		return
	}
	ea.comp = append(ea.comp, b)
	eb.comp = append(eb.comp, a)
}

// Retire marks nets as frontier-retired (from extract.Streamer.AddNet's
// retired list) and returns every component this closed, in retirement
// order. A closed component can never reopen: a future net cannot couple to
// a retired one.
func (s *StreamClusterer) Retire(nets []int) ([]*ClosedComponent, error) {
	var out []*ClosedComponent
	for _, idx := range nets {
		root := s.find(idx)
		c := s.comps[root]
		c.live--
		if c.live > 0 {
			continue
		}
		closed, err := s.close(c)
		if err != nil {
			return out, err
		}
		delete(s.comps, root)
		out = append(out, closed)
	}
	return out, nil
}

// Finish closes every remaining component (callers normally retire all nets
// via extract.Streamer.Finish first, making this a no-op safety net).
func (s *StreamClusterer) Finish() ([]*ClosedComponent, error) {
	roots := make([]int, 0, len(s.comps))
	for r := range s.comps {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	var out []*ClosedComponent
	for _, r := range roots {
		closed, err := s.close(s.comps[r])
		if err != nil {
			return out, err
		}
		delete(s.comps, r)
		out = append(out, closed)
	}
	return out, nil
}

// LiveNets returns how many nets are currently retained (frontier-live or
// waiting for their component to close).
func (s *StreamClusterer) LiveNets() int { return len(s.entries) }

// close builds the component-scoped design + parasitics and prunes every
// eligible victim.
func (s *StreamClusterer) close(c *ufComponent) (*ClosedComponent, error) {
	members := c.members
	sort.Ints(members)
	rank := make(map[int]int, len(members))
	for local, gi := range members {
		rank[gi] = local
	}

	md := design.New(s.designName)
	seen := make(map[string]bool, len(members))
	for _, gi := range members {
		e := s.entries[gi]
		if seen[e.net.Name] {
			return nil, fmt.Errorf("prune: duplicate net name %q in streamed component", e.net.Name)
		}
		seen[e.net.Name] = true
		n := *e.net // shallow copy; AddNet rewrites Index to the local rank
		md.AddNet(&n)
	}
	// Complementary pairs with both ends in this component, ordered by
	// later member then mark order — the chronological order the
	// materialized design records.
	for local, gi := range members {
		for _, partner := range s.entries[gi].comp {
			if pr, ok := rank[partner]; ok && pr < local {
				md.MarkComplementary(pr, local)
			}
		}
	}

	nets := make([]*extract.NetRC, len(members))
	for local, gi := range members {
		rc := *s.entries[gi].rc // shallow copy so Net can point at the local copy
		rc.Net = md.Nets[local]
		nets[local] = &rc
	}
	// The rank map is monotone, so renumbered couplings keep the NetA < NetB
	// form and NewParasitics sorts them into exactly the order of the global
	// list's component subsequence.
	couplings := make([]extract.Coupling, len(c.couplings))
	for k, cc := range c.couplings {
		couplings[k] = extract.Coupling{
			NetA: rank[cc.NetA], NodeA: cc.NodeA,
			NetB: rank[cc.NetB], NodeB: cc.NodeB,
			Farads: cc.Farads,
		}
	}
	mp := extract.NewParasitics(md, s.tech, nets, couplings)

	closed := &ClosedComponent{Members: members, Par: mp, Clusters: Clusters(mp, s.opt)}

	for _, gi := range members {
		delete(s.entries, gi)
		delete(s.parent, gi)
	}
	return closed, nil
}
