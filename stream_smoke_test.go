package xtverify

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// peakRSSMB returns the process peak resident set size (VmHWM) in MB, or -1
// when /proc is unavailable (non-Linux).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return -1
			}
			return kb / 1024
		}
	}
	return -1
}

// TestStreamSmokeLarge is the CI streaming smoke: a ~1M-net synthetic chip
// (2500 channels of the bench design's short-span tracks) verified through
// streaming ingest. It is skipped unless XTVERIFY_STREAM_SMOKE is set —
// "stream" (or "1") runs the streamed path, "materialized" runs the same
// design materialized, so the two modes' peak-RSS numbers can be compared.
// When XTVERIFY_STREAM_SMOKE_MAX_RSS_MB is also set, the test fails if the
// process peak RSS (VmHWM) exceeds that budget — CI runs the streamed mode
// with a budget ≥4× below the materialized peak, under a matching GOMEMLIMIT
// so the runtime is not even allowed to drift that high.
func TestStreamSmokeLarge(t *testing.T) {
	mode := os.Getenv("XTVERIFY_STREAM_SMOKE")
	if mode == "" {
		t.Skip("set XTVERIFY_STREAM_SMOKE=stream (or materialized) to run the ~1M-net smoke")
	}
	cfg := DSPConfig{Seed: 1999, Channels: 2500, TracksPerChannel: 400,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
	ecfg := Config{Model: FixedResistance, Collector: NewMetricsCollector()}
	if mode != "materialized" {
		ecfg.StreamIngest = true
	}
	// The clock starts before construction, which is where a materialized
	// verifier generates and extracts the whole chip.
	start := time.Now()
	v, err := NewVerifierFromDSP(cfg, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if rep.NetCount < 1_000_000 {
		t.Fatalf("smoke design has %d nets, want >= 1M", rep.NetCount)
	}
	if rep.Diagnostics.Unverified != 0 {
		t.Fatalf("%d clusters unverified", rep.Diagnostics.Unverified)
	}
	s := rep.Diagnostics.Metrics
	if ecfg.StreamIngest {
		if got := s.Counters["nets_streamed"]; got != int64(rep.NetCount) {
			t.Errorf("nets_streamed = %d, want %d", got, rep.NetCount)
		}
		// The frontier must stay a sliver of the chip — this is the
		// bounded-memory invariant in counter form.
		if peak := s.Counters["frontier_peak_nets"]; peak <= 0 || peak > int64(rep.NetCount/10) {
			t.Errorf("frontier_peak_nets = %d on a %d-net chip; frontier is not bounded", peak, rep.NetCount)
		}
	}
	rss := peakRSSMB()
	t.Logf("mode=%s nets=%d clusters=%d violations=%d frontier_peak=%d wall=%v nets/sec=%.0f peak-rss-MB=%.1f",
		mode, rep.NetCount, rep.AnalyzedVictims, len(rep.Violations),
		s.Counters["frontier_peak_nets"], wall, float64(rep.NetCount)/wall.Seconds(), rss)
	if budget := os.Getenv("XTVERIFY_STREAM_SMOKE_MAX_RSS_MB"); budget != "" {
		maxMB, err := strconv.ParseFloat(budget, 64)
		if err != nil {
			t.Fatalf("bad XTVERIFY_STREAM_SMOKE_MAX_RSS_MB %q: %v", budget, err)
		}
		if rss < 0 {
			t.Skip("peak RSS unavailable on this platform; budget not enforced")
		}
		if rss > maxMB {
			t.Errorf("peak RSS %.1f MB exceeds the %.0f MB budget; streaming ingest is no longer bounded", rss, maxMB)
		}
	}
}
