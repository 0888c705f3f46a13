// Command perfbench is the repository's host-time benchmark. It drives
// the public campaign entry points of internal/measure (RunSingleQuery,
// RunWeb, RunProxyServe) on a population generated from --seed, all
// traffic simulated in one process, and reports what a user who
// regenerates the paper's artifacts pays: host CPU time per measured
// operation, set-up time, memory and allocations. A traced run
// (--trace 1) attributes the same campaign's CPU profile to the
// repository's modules and times probes into each layer.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sq-handshake --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all                 # every workload, one table
//	bash perfbench/run.sh --compare parent.txt change.txt
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the line before it,
// prefixed "# perfbench ", is the full record (machine identity,
// correctness gate, simulated-time figures, probes) that --compare
// reads.
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
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
	Lower      bool // lower is better
}

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"ops_per_ref_s", "ops/ref_s", false},
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},
	{"alloc_kb_per_op", "KB/op", true},
	{"allocs_per_op", "objects/op", true},
}

// recordOnly are untraced metrics that go to the full record and to
// --compare but not to the result line: ops_per_s moves with the
// neighbours' load on a shared host as much as with the program
// (ops_per_ref_s divides that out).
var recordOnly = []metricDef{
	{"ops_per_s", "ops/s", false},
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value (passes, set-ups,
	// operations); it goes to the full record only.
	N int `json:"n,omitempty"`
}

// record is everything one run measured.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Machine   machine            `json:"machine"`
	Gate      gate               `json:"gate"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Simulated map[string]float64 `json:"simulated"`
	Metrics   map[string]value   `json:"metrics"`
	Probes    map[string]probe   `json:"probes,omitempty"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

const recordPrefix = "# perfbench "

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "minimum measured host seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	compare := flag.Bool("compare", false, "summarize result files given as arguments: one (spread) or two (parent, change)")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, compare bool, args []string) error {
	if compare {
		return runCompare(os.Stdout, args)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if name == "all" {
		return runAll(seed, seconds, trace)
	}
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	rec, err := measureWorkload(wl, seed, seconds, trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(recordPrefix + string(line))
	out := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	for k, v := range rec.Metrics {
		out.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
	}
	for _, m := range recordOnly {
		delete(out.Metrics, m.Name)
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a process of its own, so each reports
// its own peak RSS, and prints one table.
func runAll(seed int64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]value{}}
	for _, wl := range workloads {
		cmd := exec.Command(self, "--workload", wl.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		recs, err := parseRecords(bytes.NewReader(stdout))
		if err != nil || len(recs) != 1 {
			return fmt.Errorf("%s: no record in output (%v)", wl.name, err)
		}
		rec := recs[0]
		printRecord(os.Stdout, rec)
		all.Correct = all.Correct && rec.Correct
		all.Attempted += rec.Attempted
		all.Failed += rec.Failed
		for k, v := range rec.Metrics {
			all.Metrics[wl.name+"."+k] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRecord writes one run as a readable block.
func printRecord(w io.Writer, rec record) {
	m := rec.Machine
	fmt.Fprintf(w, "== %s  seed=%d traced=%v  cpu=%q nproc=%d gomaxprocs=%d parallelism=%d %s source=%s\n",
		rec.Workload, rec.Seed, rec.Traced, m.CPU, m.NProc, m.GOMAXPROCS, m.Parallelism, m.GoVersion, m.Source)
	fmt.Fprintf(w, "   gate: ok=%v %s  attempted=%d failed=%d\n", rec.Gate.OK, rec.Gate.Detail, rec.Attempted, rec.Failed)
	for _, k := range sortedKeys(rec.Metrics) {
		v := rec.Metrics[k]
		fmt.Fprintf(w, "   %-32s %14.4f %-10s n=%d\n", k, v.Value, v.Unit, v.N)
	}
	for _, k := range sortedKeys(rec.Simulated) {
		fmt.Fprintf(w, "   %-32s %14.6g (simulated)\n", k, rec.Simulated[k])
	}
}

// parseRecords reads every full record line from a run's output.
func parseRecords(r io.Reader) ([]record, error) {
	var recs []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gomaxprocs bounds the scheduler to n OS threads, never more than the
// machine has.
func gomaxprocs(n int) int {
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	runtime.GOMAXPROCS(n)
	return n
}
