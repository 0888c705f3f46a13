// Command bench runs the repository's benchmark suite and records a
// benchmark-trajectory point as JSON: per-benchmark ns/op, B/op, and
// allocs/op, plus the serial→parallel speedup of the sharded campaign
// benchmarks, plus one full experiment-suite run's wall time, peak RSS,
// and byte-pool hit/miss counters. Committing one BENCH_PR<n>.json per
// performance PR turns "it got faster" into a reviewable series (see
// README "Performance").
//
// Usage:
//
//	go run ./cmd/bench [-count 3] [-bench regexp] [-pkg ./...] [-suite=false] [-out BENCH_PR6.json]
//
// Equivalent to `make bench`. Each benchmark's best run across -count
// repetitions is recorded (minimum ns/op; B/op and allocs/op are
// iteration-count independent).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded point.
type Result struct {
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// Suite is one full run of the experiment suite with resource
// telemetry: wall time, peak RSS, and the byte-pool lease counters (all
// parsed from cmd/experiments' stderr).
type Suite struct {
	Seconds    float64 `json:"seconds"`
	PeakRSSKB  int64   `json:"peak_rss_kb"`
	PoolHits   uint64  `json:"pool_hits"`
	PoolMisses uint64  `json:"pool_misses"`
}

// Trajectory is the file schema.
type Trajectory struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Count      int    `json:"count"`
	// Benchmarks maps benchmark name (package-qualified outside the
	// root package) to its best run.
	Benchmarks map[string]Result `json:"benchmarks"`
	// ParallelSpeedup maps experiment id to serial-ns / parallel-ns for
	// the benchmark pairs that exist in both forms (every registered
	// experiment: BenchmarkExperiments/<ID> and <ID>Parallel).
	ParallelSpeedup map[string]float64 `json:"parallel_speedup"`
	// Suite holds the resource telemetry of one full experiment-suite
	// run (omitted when -suite is disabled or the run fails).
	Suite *Suite `json:"suite,omitempty"`
}

var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op(?:\s+(\S+) B/op)?(?:\s+(\S+) allocs/op)?`)
	expID     = regexp.MustCompile(`(?:^|/)(E\d+)$`)
	suiteLine = regexp.MustCompile(`(\d+) experiments in ([0-9.]+)s`)
	poolLine  = regexp.MustCompile(`bytepool (\d+) hits (\d+) misses(?:; peak rss (\d+) KB)?`)
)

// runSuite executes the full experiment suite once and parses its
// stderr telemetry. Returns nil when the run fails.
func runSuite() *Suite {
	fmt.Fprintln(os.Stderr, "bench: go run ./cmd/experiments (suite telemetry)")
	cmd := exec.Command("go", "run", "./cmd/experiments")
	var errBuf bytes.Buffer
	cmd.Stdout = nil // reports are byte-stable; only stderr matters here
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: suite run failed: %v\n%s", err, errBuf.String())
		return nil
	}
	s := &Suite{}
	if m := suiteLine.FindStringSubmatch(errBuf.String()); m != nil {
		s.Seconds, _ = strconv.ParseFloat(m[2], 64)
	}
	if m := poolLine.FindStringSubmatch(errBuf.String()); m != nil {
		s.PoolHits, _ = strconv.ParseUint(m[1], 10, 64)
		s.PoolMisses, _ = strconv.ParseUint(m[2], 10, 64)
		if m[3] != "" {
			s.PeakRSSKB, _ = strconv.ParseInt(m[3], 10, 64)
		}
	}
	return s
}

func main() {
	count := flag.Int("count", 3, "benchmark repetitions (best run is recorded)")
	benchRe := flag.String("bench", ".", "benchmark filter regexp passed to go test")
	pkg := flag.String("pkg", "./...", "packages to benchmark")
	out := flag.String("out", "BENCH_PR6.json", "output JSON path")
	suite := flag.Bool("suite", true, "also run the full experiment suite once for wall-time/RSS/pool telemetry")
	flag.Parse()

	args := []string{"test", "-run", "XXX", "-bench", *benchRe, "-benchmem",
		"-count", strconv.Itoa(*count), *pkg}
	fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: go test failed: %v\n%s", err, buf.String())
		os.Exit(1)
	}

	tr := Trajectory{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      *count,
		Benchmarks: map[string]Result{},
	}
	pkgPrefix := ""
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			// Qualify names outside the root package: "repro/internal/sim"
			// -> "sim/"; the root package "repro" stays unqualified.
			pkgPrefix = ""
			if i := strings.LastIndex(rest, "/"); i >= 0 {
				pkgPrefix = rest[i+1:] + "/"
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := pkgPrefix + strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := Result{NsPerOp: ns}
		if m[3] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[3], 10, 64)
		}
		if m[4] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if prev, ok := tr.Benchmarks[name]; !ok || r.NsPerOp < prev.NsPerOp {
			tr.Benchmarks[name] = r
		}
	}

	tr.ParallelSpeedup = map[string]float64{}
	for name, serial := range tr.Benchmarks {
		par, ok := tr.Benchmarks[name+"Parallel"]
		if !ok || par.NsPerOp == 0 {
			continue
		}
		// "Experiments/E4" -> "E4"
		id := name
		if m := expID.FindStringSubmatch(name); m != nil {
			id = m[1]
		}
		tr.ParallelSpeedup[id] = math.Round(serial.NsPerOp/par.NsPerOp*100) / 100
	}

	if *suite {
		tr.Suite = runSuite()
	}

	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d benchmarks to %s\n", len(tr.Benchmarks), *out)
}
