// The metrics snapshot: the frozen, JSON-serializable view of a Collector.
//
// Schema (version 4 — version 3 plus the streaming-ingest counters
// nets_streamed / clusters_emitted_eager / frontier_peak_nets, which stay 0
// on a materialized run; version 3 added the incremental-reverify counters
// reverify_jobs / clusters_reused / clusters_recomputed and the persistent
// prepared-transient counter prepared_store_hits):
//
//	{
//	  "schema_version": 4,
//	  "workers":        <resolved pool size>,
//	  "wall_ns":        <end-to-end cluster-analysis time>,
//	  "counters":       {"<counter name>": <int64>, ...},   // every counter, zero included
//	  "phases":         {"<phase name>": {"count","total_ns","max_ns","mean_ns"}, ...},
//	  "queue":          {"submitted", "max_in_flight"},
//	  "clusters":       [{"victim","stage","phases":{...},"counters":{...}}, ...]
//	}
//
// encoding/json sorts map keys, and the clusters slice is built in victim
// (cluster) order, so a snapshot's serialization is deterministic. Counter
// totals are identical between serial and parallel runs; durations, the
// queue gauge and per-cluster counter attribution are run-dependent.
package obs

import (
	"encoding/json"
	"io"
)

// SchemaVersion is the metrics JSON schema version emitted by Snapshot.
// Version 2 added the rung-0 screening counters; version 3 the incremental
// reverify and persistent prepared-transient counters; version 4 the
// streaming-ingest counters (nets_streamed, clusters_emitted_eager,
// frontier_peak_nets).
const SchemaVersion = 4

// PhaseMetrics summarizes the recorded spans of one phase.
type PhaseMetrics struct {
	// Count is the number of completed spans.
	Count int64 `json:"count"`
	// TotalNs and MaxNs are the summed and worst span durations.
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
	// MeanNs is TotalNs/Count (0 when Count is 0).
	MeanNs int64 `json:"mean_ns"`
}

// ClusterMetrics is one cluster's slice of the flame: which ladder rung
// produced its result and where its time went.
type ClusterMetrics struct {
	// Victim is the cluster's victim net name.
	Victim string `json:"victim"`
	// Stage is the ladder rung that produced the result.
	Stage string `json:"stage"`
	// Phases holds the cluster's recorded spans (absent phases omitted).
	Phases map[string]PhaseMetrics `json:"phases,omitempty"`
	// Counters holds the cluster's non-zero counters.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// QueueMetrics describes worker-pool pressure.
type QueueMetrics struct {
	// Submitted is the number of clusters handed to workers.
	Submitted int64 `json:"submitted"`
	// MaxInFlight is the high-water mark of concurrently analyzed clusters.
	MaxInFlight int64 `json:"max_in_flight"`
}

// Snapshot is the frozen metrics view of one run.
type Snapshot struct {
	SchemaVersion int                     `json:"schema_version"`
	Workers       int                     `json:"workers"`
	WallNs        int64                   `json:"wall_ns"`
	Counters      map[string]int64        `json:"counters"`
	Phases        map[string]PhaseMetrics `json:"phases"`
	Queue         QueueMetrics            `json:"queue"`
	Clusters      []ClusterMetrics        `json:"clusters,omitempty"`
}

// Snapshot freezes the collector's current state. It may be called mid-run
// (the expvar endpoint does); the engine calls it once more at run end for
// Report.Diagnostics. Nil-safe: a nil collector yields a nil snapshot.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Snapshot{
		SchemaVersion: SchemaVersion,
		Workers:       c.workers,
		WallNs:        c.wallNs,
		Counters:      make(map[string]int64, NumCounters),
		Phases:        make(map[string]PhaseMetrics, NumPhases),
		Queue: QueueMetrics{
			Submitted:   c.submitted.Load(),
			MaxInFlight: c.maxInFlight.Load(),
		},
	}
	for i := Counter(0); i < NumCounters; i++ {
		s.Counters[i.String()] = c.counters[i]
	}
	for i := Phase(0); i < NumPhases; i++ {
		if st := c.spans[i]; st.count > 0 {
			s.Phases[i.String()] = st.metrics()
		}
	}
	s.Clusters = append(s.Clusters, c.clusters...)
	return s
}

// WriteJSON writes the snapshot as indented JSON (the -metrics-out format).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func (s spanStat) metrics() PhaseMetrics {
	m := PhaseMetrics{Count: s.count, TotalNs: s.totalNs, MaxNs: s.maxNs}
	if s.count > 0 {
		m.MeanNs = s.totalNs / s.count
	}
	return m
}

// clusterMetrics freezes one trace into its per-cluster snapshot entry.
func (t *Trace) clusterMetrics(victim, stage string) ClusterMetrics {
	cm := ClusterMetrics{Victim: victim, Stage: stage}
	for i := Phase(0); i < NumPhases; i++ {
		if st := t.spans[i]; st.count > 0 {
			if cm.Phases == nil {
				cm.Phases = make(map[string]PhaseMetrics)
			}
			cm.Phases[i.String()] = st.metrics()
		}
	}
	for i := Counter(0); i < NumCounters; i++ {
		if v := t.counters[i]; v != 0 {
			if cm.Counters == nil {
				cm.Counters = make(map[string]int64)
			}
			cm.Counters[i.String()] = v
		}
	}
	return cm
}
