// stream_ingest.go is the engine's streamed cluster source
// (Config.StreamIngest): nets flow from a streamSource through the
// incremental extraction kernel (internal/extract Streamer) into the
// streaming clusterer (internal/prune StreamClusterer), and every coupled
// cluster is emitted to the worker pool the moment its component closes —
// while ingest is still running. Peak memory is O(largest component +
// frontier) instead of O(chip).
//
// The report is byte-identical to a materialized run's. Three facts carry
// the proof, each pinned by its own layer:
//
//   - the extraction kernel is shared (Extract *is* the Streamer with an
//     unbounded frontier), and per-coupling float accumulation order is a
//     pure function of net arrival order, identical in both modes;
//   - a closed component contains every coupling that can influence its
//     victims, renumbered by a monotone map, so pruning and circuit
//     assembly visit bit-identical values in identical order (see
//     internal/prune stream.go);
//   - the engine sorts eagerly-emitted clusters back into global victim
//     order — the materialized source's emission order — before any report
//     field or merged counter is produced.
package xtverify

import (
	"context"
	"fmt"
	"io"

	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
	"xtverify/internal/obs"
	"xtverify/internal/prune"
)

// streamSource produces a design as a stream of nets into the engine's
// ingestor. Stream is called once per run and must deliver the same design
// each time, nets in (approximately) ascending-y order — see
// Config.StreamFrontierSlackUM. It returns the first ingestor error
// unwrapped, or its own typed parse error.
type streamSource interface {
	Stream(ctx context.Context, ing *streamIngestor) error
}

// requireMaterialized guards APIs that read the whole in-memory design or
// parasitics, which a streaming verifier never builds.
func (v *Verifier) requireMaterialized(op string) error {
	if v.src != nil {
		return fmt.Errorf("%w: %s needs the materialized design", ErrStreamIngest, op)
	}
	return nil
}

// newStreamVerifier prepares a verifier that ingests from src on every run.
func newStreamVerifier(src streamSource, cfg Config) (*Verifier, error) {
	if cfg.UseTimingWindows {
		return nil, fmt.Errorf("%w: timing windows need whole-design STA annotation", ErrStreamIngest)
	}
	return &Verifier{cfg: cfg, src: src}, nil
}

// dspStreamSource streams the synthetic DSP generator without materializing
// the design.
type dspStreamSource struct{ cfg dsp.Config }

func (s dspStreamSource) Stream(ctx context.Context, ing *streamIngestor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ing.StartDesign(dsp.DesignName); err != nil {
		return err
	}
	// Cancellation propagates through the ingestor: every AddNet checks the
	// run context and its error aborts the generator.
	return dsp.Stream(s.cfg, ing)
}

// defStreamSource streams a DEF-subset reader. The reader is consumed by
// Stream, so a verifier built on it supports one run per rewind.
type defStreamSource struct{ r io.Reader }

func (s defStreamSource) Stream(ctx context.Context, ing *streamIngestor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return deflite.StreamRead(s.r, ing)
}

// streamIngestor is the sink a streamSource feeds: extract → cluster →
// emit, plus the raw component sizes the materialized source reads off
// prune.RawClusters.
type streamIngestor struct {
	ctx  context.Context
	str  *extract.Streamer
	sc   *prune.StreamClusterer
	emit emitFunc
	// perNet emits one unit per non-clock member of each closed component
	// instead of its pruned clusters (runParams.perNet).
	perNet bool

	name     string
	netCount int
	emitted  int64
	// rawSizes holds the size of every closed component of ≥ 2 nets.
	rawSizes []int
}

// StartDesign names the design; sources call it before any net.
func (s *streamIngestor) StartDesign(name string) error {
	s.name = name
	s.sc.SetDesignName(name)
	return nil
}

// AddNet ingests one net, complete with pins and routed segments, and emits
// every cluster its arrival closed. The ingestor assigns the net's global
// Index; the source must not reuse or mutate the net afterwards.
func (s *streamIngestor) AddNet(n *design.Net) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	n.Index = s.netCount
	s.netCount++
	rc, final, retired, err := s.str.AddNet(n)
	if err != nil {
		return err
	}
	s.sc.AddNet(n, rc, final)
	closed, err := s.sc.Retire(retired)
	if err != nil {
		return err
	}
	return s.emitClosed(closed)
}

// MarkComplementary records nets a and b (global indices of nets already
// added) as a complementary Q/QN pair.
func (s *streamIngestor) MarkComplementary(a, b int) {
	s.sc.MarkComplementary(a, b)
}

// emitClosed records each closed component's raw size and emits its pruned
// clusters, or with perNet its non-clock nets, with the component's views.
func (s *streamIngestor) emitClosed(closed []*prune.ClosedComponent) error {
	for _, c := range closed {
		if n := len(c.Members); n >= 2 {
			s.rawSizes = append(s.rawSizes, n)
		}
		clusters := c.Clusters
		if s.perNet {
			clusters = netUnits(c.Par.Design)
		}
		for _, cl := range clusters {
			if err := s.emit(c.Members[cl.Victim], clusterUnit{cl: cl, par: c.Par, des: c.Par.Design}); err != nil {
				return err
			}
			s.emitted++
		}
	}
	return nil
}

// finish drains the frontier after the source is exhausted: everything
// still live retires, every remaining component closes and is emitted.
func (s *streamIngestor) finish() error {
	closed, err := s.sc.Retire(s.str.Finish())
	if err == nil {
		err = s.emitClosed(closed)
	}
	if err != nil {
		return err
	}
	rem, err := s.sc.Finish()
	if err == nil {
		err = s.emitClosed(rem)
	}
	return err
}

// streamClusters is the streamed cluster source: it ingests v.src through
// the extraction kernel and the streaming clusterer, emitting each cluster
// (or with perNet each non-clock net) the moment its component closes. The
// prune span covers the whole ingest.
func (v *Verifier) streamClusters(ctx context.Context, perNet bool, emit emitFunc) (sourceInfo, error) {
	slack := v.cfg.StreamFrontierSlackUM
	if slack <= 0 {
		slack = extract.DefaultFrontierSlackUM
	}
	ing := &streamIngestor{
		ctx:    ctx,
		str:    extract.NewStreamer(extract.Tech025(), slack),
		sc:     prune.NewStreamClusterer("", extract.Tech025(), v.pruneOptions()),
		emit:   emit,
		perNet: perNet,
	}
	col := v.cfg.Collector
	span := col.Start(obs.PhasePrune)
	err := v.src.Stream(ctx, ing)
	if err == nil {
		err = ing.finish()
	}
	span.End()
	col.Add(obs.CtrNetsStreamed, int64(ing.netCount))
	col.Add(obs.CtrClustersEmittedEager, ing.emitted)
	col.Add(obs.CtrFrontierPeakNets, int64(ing.str.PeakLiveNets()))
	return sourceInfo{name: ing.name, nets: ing.netCount, rawSizes: ing.rawSizes}, err
}
