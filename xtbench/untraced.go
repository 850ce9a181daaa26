package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(o *options) (result, error) {
	var (
		t   tally
		m   e2e
		err error
	)
	if o.w.eco {
		m, err = o.ecoWindow(&t, true)
	} else {
		m, err = o.batchWindow(&t)
	}
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{
		"setup_s":     {median(m.setups), "s"},
		"nets_per_s":  {float64(m.nets) / median(m.opSeconds), "nets/s"},
		"peak_rss_mb": {rss, "MB"},
	}}
	res.Correct = t.failed == 0 && o.correct && len(m.opSeconds) > 0
	fmt.Println("end-to-end metrics:")
	printMetric("setup_s", res.Metrics["setup_s"], len(m.setups), "median of fresh-process cold starts")
	printMetric("nets_per_s", res.Metrics["nets_per_s"], len(m.opSeconds),
		fmt.Sprintf("%d nets / median warm operation %.4f s", m.nets, median(m.opSeconds)))
	if o.w.eco {
		lat := make([]float64, len(m.opSeconds))
		for i, s := range m.opSeconds {
			lat[i] = s * 1e3
		}
		printMetric("eco_p50_ms", metric{median(lat), "ms"}, len(lat), "one /v1/reverify, closed loop, one client")
		if p90, ok := tail(lat, 0.9); ok {
			printMetric("eco_p90_ms", metric{p90.Value, "ms"}, p90.N, fmt.Sprintf("%d samples beyond", p90.Beyond))
		} else {
			fmt.Printf("  %-28s not reported (n=%d, %d samples beyond p90; needs %d)\n", "eco_p90_ms", p90.N, p90.Beyond, minTail)
		}
	}
	printMetric("peak_rss_mb", res.Metrics["peak_rss_mb"], 1, "VmHWM at exit")
	if !o.w.eco {
		fmt.Printf("warm operations (s):")
		for _, s := range m.opSeconds {
			fmt.Printf(" %.4f", s)
		}
		fmt.Println()
	}
	fmt.Printf("operations: %s\n", t.String())
	return res, nil
}

// e2e is what a measurement window collects.
type e2e struct {
	nets int
	// setups are the cold starts in seconds; opSeconds the warm operations'
	// times (batch) or request latencies (eco-daemon).
	setups, opSeconds []float64
	// srv is the eco-daemon server after the window, baseDigest its base
	// report's digest and pass1 the chain's first pass, request by request.
	srv        *ecoServer
	baseDigest string
	pass1      []ecoReply
}

// batchWindow runs the batch workload: fresh-process cold starts, this
// process's own cold start, then warm operations for the window.
func (o *options) batchWindow(t *tally) (e2e, error) {
	ref := o.reference(o.w.name)
	o.correct = o.correct && !ref.missing
	var m e2e
	m.setups = o.setups(t, ref)
	res, took, err := batchOp(context.Background(), o.in.def(), o.w.cfg)
	if t.record(res.outcome(err), ref.expect(res.digest)) {
		m.setups = append(m.setups, took.Seconds())
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench: cold operation:", err)
	}
	m.opSeconds, m.nets = o.warmOps(t, ref)
	fmt.Printf("digest: %s\n", ref)
	if o.w.streamCheck {
		cfg := o.w.cfg
		cfg.StreamIngest = true
		runtime.GC()
		res, _, err := batchOp(context.Background(), o.in.def(), cfg)
		if !t.record(res.outcome(err), ref.expect(res.digest)) && err != nil {
			fmt.Fprintln(os.Stderr, "xtbench: streamed operation:", err)
		}
		fmt.Printf("streamed digest: %s (untimed; must equal the digest above)\n", res.digest)
	}
	return m, nil
}

// warmOps runs warm batch operations, each after a forced GC, at least
// minBatchOps times and then while another one is expected to end inside
// the window, and returns the successful ones' times and the design's net
// count.
func (o *options) warmOps(t *tally, ref *reference) (times []float64, nets int) {
	ctx := context.Background()
	start := time.Now()
	for len(times) < minBatchOps || fits(time.Since(start), o.window, times) {
		runtime.GC()
		res, took, err := batchOp(ctx, o.in.def(), o.w.cfg)
		if !t.record(res.outcome(err), ref.expect(res.digest)) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "xtbench: operation:", err)
			}
			if time.Since(start) >= 2*o.window {
				break
			}
			continue
		}
		times = append(times, took.Seconds())
		nets = res.nets
	}
	return times, nets
}

// fits reports whether one more operation, expected to take the median of
// times, ends inside the window; stopping there keeps a run's length close
// to the window instead of up to one operation past it.
func fits(elapsed, window time.Duration, times []float64) bool {
	return elapsed+time.Duration(median(times)*float64(time.Second)) <= window
}

// ecoWindow runs eco-daemon: fresh-process cold starts (when setups is set),
// this process's own daemon.New + base /v1/verify, then chained
// /v1/reverify repairs for the window and at least minEcoRequests times.
// Requests run back to back with no forced GC: a daemon pays its
// collections inside requests. Each pass of the chain starts again from the base job; every
// pass must reproduce the first one request by request, and the first pass
// must reproduce the recorded chain digest.
func (o *options) ecoWindow(t *tally, setups bool) (e2e, error) {
	var m e2e
	body, err := readBaseBody(o.in)
	if err != nil {
		return m, err
	}
	victims, err := readVictims(o.in)
	if err != nil {
		return m, err
	}
	nets, err := designNets(o.in)
	if err != nil {
		return m, err
	}
	m.nets = nets
	baseRef := o.reference(o.w.name + ".base")
	chainRef := o.reference(o.w.name)
	o.correct = o.correct && !baseRef.missing && !chainRef.missing
	if setups {
		m.setups = o.setups(t, baseRef)
	}
	srv, reply, took, err := ecoSetup(o.w, body)
	if !t.record(reply.outcome(err), baseRef.expect(reply.digest)) {
		return m, fmt.Errorf("base /v1/verify: %v", err)
	}
	m.setups = append(m.setups, took.Seconds())
	m.srv, m.baseDigest = srv, reply.digest

	prev := reply.resp.JobID
	start := time.Now()
	done := func() bool { return time.Since(start) >= o.window && len(m.opSeconds) >= minEcoRequests }
	for pass := 0; ; pass++ {
		if pass > 0 {
			if done() {
				break
			}
			// Back to the base job: a report-cache hit while the base is
			// still cached, a re-run once eviction has dropped it.
			r, _, err := srv.post("/v1/verify", body)
			if !t.record(r.outcome(err), baseRef.expect(r.digest)) {
				return m, fmt.Errorf("re-verify base: %v", err)
			}
			prev = r.resp.JobID
		}
		for i, victim := range victims {
			if pass > 0 && done() {
				break
			}
			req, err := ecoRepairBody(prev, victim)
			if err != nil {
				return m, err
			}
			r, took, err := srv.post("/v1/reverify", req)
			if pass == 0 {
				if err != nil || r.status != 200 {
					t.record(r.outcome(err), "")
					return m, fmt.Errorf("reverify %s: %v", victim, err)
				}
				m.pass1 = append(m.pass1, r)
			} else if !t.record(r.outcome(err), m.pass1[i].digest) {
				return m, fmt.Errorf("reverify %s: %v", victim, err)
			}
			m.opSeconds = append(m.opSeconds, took.Seconds())
			prev = r.resp.JobID
		}
		if pass == 0 {
			o.checkFirstPass(t, chainRef, m.pass1)
		}
	}
	fmt.Printf("digests: base %s, chain %s\n", baseRef, chainRef)
	return m, nil
}

// checkFirstPass records the first pass's requests: each passes only if the
// pass's chain digest matches the reference.
func (o *options) checkFirstPass(t *tally, ref *reference, pass []ecoReply) {
	ds := make([]string, len(pass))
	for i, r := range pass {
		ds[i] = r.digest
	}
	chainOK := chainDigest(ds) == ref.expect(chainDigest(ds)) || ref.missing
	for _, r := range pass {
		want := r.digest
		if !chainOK {
			want = "chain digest mismatch"
		}
		t.record(r.outcome(nil), want)
	}
}

// designNets reads the design's net count from its DEF file's NETS header.
func designNets(in inputs) (int, error) {
	f, err := os.Open(in.def())
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var n int
		if _, err := fmt.Sscanf(sc.Text(), "NETS %d ;", &n); err == nil {
			return n, nil
		}
	}
	return 0, fmt.Errorf("no NETS section in %s", in.def())
}
