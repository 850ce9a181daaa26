// Command benchjson runs the repository benchmark suite and writes the
// results as machine-readable JSON, so the performance trajectory of the
// numeric core can be tracked across PRs (BENCH_0.json, BENCH_1.json, ...).
//
// It shells out to `go test -bench` with -benchmem, parses the standard
// benchmark output format (including custom b.ReportMetric columns such as
// errpct and speedup-x), and emits one snapshot file:
//
//	go run ./cmd/benchjson                      # auto-numbered BENCH_<n>.json
//	go run ./cmd/benchjson -bench 'Reduce' -out BENCH_pre.json
//	go run ./cmd/benchjson -compare BENCH_2.json -out /tmp/pr.json
//
// The default benchmark set is the core-kernel trio whose regression budget
// the acceptance criteria track, plus the sparse-kernel comparison and the
// multi-scenario cluster sweep; pass -bench '.' for the full suite (slow:
// every paper table/figure re-runs).
//
// With -compare, the fresh snapshot is diffed against a committed baseline
// and the command exits non-zero when any benchmark present in both slowed
// down by more than -tolerance percent ns/op (default 20%), so CI can gate
// merges on the numeric core's speed. New and dropped benchmarks are listed
// but never fail the gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench is the core-kernel set: cheap enough for routine snapshots,
// covering the hot paths (reduction, ROM transient, reference SPICE, SpMV),
// the device-port Newton transient against its dense-LU ablation, the
// prepared-vs-seed multi-scenario cluster sweep, the end-to-end chip
// verify with the rung-0 screen on/off (clusters/sec headline), the
// streaming-vs-materialized ingest (nets/sec and peak-heap-MB headline),
// and the incremental ECO splice vs full re-run (speedup-x headline). Go
// splits -bench on '/' before it reads the '|' alternatives, so no
// alternative can pick one sub-benchmark: the ablation's dense-lu half runs
// too.
const defaultBench = "BenchmarkSyMPVLReduce$|BenchmarkROMTransient$|BenchmarkSPICETransient$|BenchmarkSparseMulVec|BenchmarkAblationWoodbury$|BenchmarkGlitchClusterScenarios|BenchmarkChipVerify|BenchmarkChipStream|BenchmarkReverify$"

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the serialized form of one benchmark run.
type Snapshot struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Bench      string      `json:"bench"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	pkg := flag.String("pkg", "./...", "package pattern to benchmark")
	out := flag.String("out", "", "output file; default: first unused BENCH_<n>.json")
	count := flag.Int("count", 1, "go test -count value")
	compare := flag.String("compare", "", "baseline snapshot to diff against; exit non-zero on ns/op regressions beyond -tolerance")
	tolerance := flag.Float64("tolerance", 20, "allowed ns/op regression percentage for -compare")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(buf.Bytes())
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n", err)
		os.Exit(1)
	}
	os.Stderr.Write(buf.Bytes())

	snap := Snapshot{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Bench:     *bench,
		Benchtime: *benchtime,
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed")
		os.Exit(1)
	}

	path := *out
	if path == "" {
		for n := 0; ; n++ {
			p := fmt.Sprintf("BENCH_%d.json", n)
			if _, err := os.Stat(p); os.IsNotExist(err) {
				path = p
				break
			}
		}
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))

	if *compare != "" {
		old, err := readSnapshot(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if !compareSnapshots(os.Stderr, old, &snap, *tolerance) {
			os.Exit(1)
		}
	}
}

// readSnapshot loads a previously written BENCH_<n>.json file.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// compareSnapshots diffs ns/op — and every memory metric (a custom
// b.ReportMetric column ending in "-MB", e.g. peak-heap-MB) — for every
// benchmark name present in both snapshots, and reports false when any
// regressed beyond tolerancePct. Benchmarks present on only one side are
// listed but never fail the comparison — the set is allowed to grow between
// PRs.
func compareSnapshots(w io.Writer, old, cur *Snapshot, tolerancePct float64) bool {
	baseline := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		baseline[b.Name] = b
	}
	ok := true
	shared := 0
	for _, b := range cur.Benchmarks {
		ob, found := baseline[b.Name]
		if !found {
			fmt.Fprintf(w, "benchjson: new       %-40s %12.0f ns/op\n", b.Name, b.NsPerOp)
			continue
		}
		shared++
		delete(baseline, b.Name)
		pct := 100 * (b.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		status := "ok"
		if pct > tolerancePct {
			status = "REGRESSED"
			ok = false
		}
		fmt.Fprintf(w, "benchjson: %-9s %-40s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
			status, b.Name, ob.NsPerOp, b.NsPerOp, pct)
		metrics := make([]string, 0, len(b.Metrics))
		for metric := range b.Metrics {
			metrics = append(metrics, metric)
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			v := b.Metrics[metric]
			obv, has := ob.Metrics[metric]
			if !has || !strings.HasSuffix(metric, "-MB") || obv <= 0 {
				continue
			}
			mpct := 100 * (v - obv) / obv
			mstatus := "ok"
			if mpct > tolerancePct {
				mstatus = "REGRESSED"
				ok = false
			}
			fmt.Fprintf(w, "benchjson: %-9s %-40s %12.1f -> %12.1f %s (%+.1f%%)\n",
				mstatus, b.Name, obv, v, metric, mpct)
		}
	}
	for name := range baseline {
		fmt.Fprintf(w, "benchjson: dropped   %s\n", name)
	}
	if shared == 0 {
		fmt.Fprintf(w, "benchjson: no shared benchmarks with %s; nothing compared\n", old.Date)
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: ns/op regression beyond %.0f%% tolerance\n", tolerancePct)
	}
	return ok
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkSyMPVLReduce-8   312   3471768 ns/op   2472744 B/op   4268 allocs/op   1.25 errpct
//
// Every column after the iteration count is a "value unit" pair; ns/op, B/op
// and allocs/op land in dedicated fields, anything else in Metrics.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the trailing -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[f[i+1]] = v
		}
	}
	return b, b.NsPerOp > 0
}
