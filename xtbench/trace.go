package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// IDs start at 1; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// layer is the part of the span name before the first dot: the module the
// call enters ("deflite.Read" → "deflite").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory from one goroutine. Nesting follows call
// order: a span begun while another is open is its child.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("xtbench: span %d closed out of order", id))
	}
	t.open = t.open[:n-1]
	t.spans[id-1].EndNs = int64(time.Since(t.epoch))
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children's intervals, indexed like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coveredNs(s, children[s.ID])
	}
	return self
}

// coveredNs is the length of the union of the children's intervals, clipped
// to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerBusy sums the self time, in seconds, of each operation's spans per
// layer: busy[op][layer].
func layerBusy(spans []span) map[string]map[string]float64 {
	self := selfTimes(spans)
	busy := make(map[string]map[string]float64)
	for i, s := range spans {
		m := busy[s.Op]
		if m == nil {
			m = make(map[string]float64)
			busy[s.Op] = m
		}
		m[s.layer()] += float64(self[i]) / 1e9
	}
	return busy
}

// durations returns the durations, in milliseconds, of every span named name
// in the given ops (all ops when ops is empty).
func durations(spans []span, name string, ops ...string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if len(ops) > 0 && !contains(ops, s.Op) {
			continue
		}
		out = append(out, float64(s.dur())/1e6)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
