package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bytepool"
	"repro/internal/resolver"
	"repro/internal/sim"
)

// Measurement settings. The timed passes run campaign parallelism 1 on
// one OS thread, like `experiments -parallel 1`; the gate re-runs the
// first cycle with two campaign workers on two threads.
const (
	measuredParallelism = 1
	gateParallelism     = 2
	// Set-up is repeated at least setupReps times and for at least
	// setupMin, in batches of at least setupBatch bracketed by the
	// reference loop, and its median reported in reference seconds.
	setupReps  = 5
	setupMin   = 2 * time.Second
	setupBatch = 100 * time.Millisecond
)

// machine identifies where and how a run was made.
type machine struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	GoVersion   string `json:"go"`
	// Source is a digest of the Go sources and module files of the
	// checkout the benchmark ran from: it names the commit even where
	// the checkout is a plain export without git metadata.
	Source string `json:"source"`
}

// gate is the correctness check's outcome.
type gate struct {
	OK bool `json:"ok"`
	// Digest is the sample-stream digest of the first cycle at campaign
	// parallelism 1; equal seeds must give equal digests on any commit
	// that does not change simulated behaviour.
	Digest string `json:"digest"`
	Detail string `json:"detail"`
}

// passStat is one timed pass.
type passStat struct {
	ops     int
	elapsed time.Duration
	// ref is the mean host time of the reference loop run just before
	// and just after the pass; zero when the window is not calibrated.
	ref time.Duration
}

// window is a sequence of timed passes. The passes after the first
// cycle replay it: same vantage, same seed, so they must reproduce its
// bytes. A run's operations are the first cycle's, fixed by the seed;
// replays re-time them and are checked, not counted again, so the
// failures a run reports depend on the seed alone, never on how many
// replays the host had time for.
type window struct {
	passes []passStat
	// cycle holds the outputs of the first cycle, one per vantage.
	cycle   []any
	digests [][]byte
	// Operations and failures of the first cycle, and its allocation
	// counters.
	cycleOps, cycleFailed int
	allocBytes, mallocs   uint64
	poolHits, poolMisses  uint64
	// ops counts every timed operation, replays included.
	ops int
	// replayMismatch names the first replay that did not reproduce its
	// pass of the first cycle.
	replayMismatch string
}

// opsPerSecond is the median over passes of ops per host second.
func (w *window) opsPerSecond() float64 {
	rates := make([]float64, len(w.passes))
	for i, p := range w.passes {
		rates[i] = float64(p.ops) / p.elapsed.Seconds()
	}
	return median(rates)
}

// opsPerRefSecond is the median over passes of ops per reference
// second (see refloop.go): the pass's rate with the host's speed at that
// moment divided out.
func (w *window) opsPerRefSecond() float64 {
	rates := make([]float64, len(w.passes))
	for i, p := range w.passes {
		refSecond := refLoopsPerRefSecond * p.ref.Seconds()
		rates[i] = float64(p.ops) / (p.elapsed.Seconds() / refSecond)
	}
	return median(rates)
}

func (w *window) cycleDigest() string {
	h := sha256.New()
	for _, d := range w.digests {
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passSeed is the campaign seed of the pass over vantage v.
func passSeed(seed int64, v int) int64 { return sim.DeriveSeed(seed, 0xBE7C, uint64(v)) }

// runWindow times passes, cycling through the vantages, until at least
// one whole cycle has run and minDur has passed. A calibrated window
// brackets every pass with the reference loop.
func runWindow(wl *workload, bp *resolver.Blueprint, seed int64, minDur time.Duration, calibrated bool) (*window, error) {
	units := len(bp.Vantages)
	w := &window{}
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; i < units || time.Since(start) < minDur; i++ {
		v := i % units
		view := vantageView(bp, v)
		h0, miss0 := bytepool.Stats()
		runtime.ReadMemStats(&m0)
		var ref time.Duration
		if calibrated {
			ref += timeRefLoop()
		}
		t0 := time.Now()
		out, err := wl.campaign(view, passSeed(seed, v), measuredParallelism)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		h1, miss1 := bytepool.Stats()
		if calibrated {
			ref = (ref + timeRefLoop()) / 2
		}
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", wl.name, i, err)
		}
		h := sha256.New()
		ops, failed := wl.digest(out, h)
		if ops == 0 {
			return nil, fmt.Errorf("%s pass %d: no operations", wl.name, i)
		}
		w.passes = append(w.passes, passStat{ops: ops, elapsed: elapsed, ref: ref})
		w.ops += ops
		w.poolHits += h1 - h0
		w.poolMisses += miss1 - miss0
		if i < units {
			w.cycle = append(w.cycle, out)
			w.digests = append(w.digests, h.Sum(nil))
			w.cycleOps += ops
			w.cycleFailed += failed
			w.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			w.mallocs += m1.Mallocs - m0.Mallocs
		} else if w.replayMismatch == "" && !bytes.Equal(h.Sum(nil), w.digests[v]) {
			w.replayMismatch = fmt.Sprintf("pass %d (vantage %d) differs from the first cycle's", i, v)
		}
	}
	return w, nil
}

// checkParallel re-runs the window's first cycle with two campaign
// workers and compares each pass digest with the parallelism-1 one.
func checkParallel(wl *workload, bp *resolver.Blueprint, seed int64, w *window) (bool, string, error) {
	procs := gomaxprocs(gateParallelism)
	defer gomaxprocs(1)
	for v := range bp.Vantages {
		out, err := wl.campaign(vantageView(bp, v), passSeed(seed, v), gateParallelism)
		if err != nil {
			return false, "", err
		}
		h := sha256.New()
		wl.digest(out, h)
		if !bytes.Equal(h.Sum(nil), w.digests[v]) {
			return false, fmt.Sprintf("parallelism %d differs from parallelism 1 on vantage %d (gomaxprocs %d)", gateParallelism, v, procs), nil
		}
	}
	return true, fmt.Sprintf("parallelism 1 and %d byte-identical over %d passes (gomaxprocs %d)", gateParallelism, len(bp.Vantages), procs), nil
}

// measureSetup times the workload's set-up: building the blueprint and
// instantiating and shutting down the whole population. It returns the
// median in reference seconds (see refloop.go), like ops_per_ref_s, and
// the number of repetitions.
func measureSetup(wl *workload, seed int64) (float64, int, error) {
	var times []float64
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupMin {
		ref := timeRefLoop()
		var batch []time.Duration
		for b0 := time.Now(); len(batch) == 0 || time.Since(b0) < setupBatch; {
			t0 := time.Now()
			bp, err := resolver.NewBlueprint(wl.universe(seed))
			if err != nil {
				return 0, 0, err
			}
			u, err := bp.Instantiate(seed, resolver.Scope{})
			if err != nil {
				return 0, 0, err
			}
			u.W.Shutdown()
			batch = append(batch, time.Since(t0))
		}
		refSecond := refLoopsPerRefSecond * ((ref + timeRefLoop()) / 2).Seconds()
		for _, d := range batch {
			times = append(times, d.Seconds()/refSecond)
		}
	}
	return median(times), len(times), nil
}

// measureWorkload makes one run.
func measureWorkload(wl *workload, seed int64, seconds int, traced bool) (record, error) {
	procs := gomaxprocs(1)
	rec := record{
		Workload: wl.name,
		Seed:     seed,
		Seconds:  seconds,
		Traced:   traced,
		Machine: machine{
			CPU:         cpuModel(),
			NProc:       runtime.NumCPU(),
			GOMAXPROCS:  procs,
			Parallelism: measuredParallelism,
			GoVersion:   runtime.Version(),
			Source:      sourceDigest(),
		},
		Metrics: map[string]value{},
	}
	dur := time.Duration(seconds) * time.Second
	if !traced {
		setup, reps, err := measureSetup(wl, seed)
		if err != nil {
			return rec, err
		}
		rec.Metrics["setup_s"] = value{Value: setup, Unit: "s", N: reps}
	}
	bp, err := resolver.NewBlueprint(wl.universe(seed))
	if err != nil {
		return rec, err
	}
	if traced {
		// The traced run splits its time between an untraced window (the
		// overhead baseline) and the profiled one.
		dur /= 2
	}
	w, err := runWindow(wl, bp, seed, dur, !traced)
	if err != nil {
		return rec, err
	}
	rec.Gate.Digest = w.cycleDigest()
	rec.Simulated = wl.simulated(w.cycle)
	rec.Simulated["failed_share"] = ratio(w.cycleFailed, w.cycleOps)
	rec.Attempted, rec.Failed = w.cycleOps, w.cycleFailed

	if !traced {
		// Peak RSS is read before the gate, whose concurrent workers
		// would make it depend on their timing.
		rss := peakRSSMB()
		ok, detail, err := checkParallel(wl, bp, seed, w)
		if err != nil {
			return rec, err
		}
		rec.Gate.OK, rec.Gate.Detail = ok, detail
		if w.replayMismatch != "" {
			rec.Gate.OK, rec.Gate.Detail = false, w.replayMismatch
		}
		rec.Metrics["ops_per_s"] = value{Value: w.opsPerSecond(), Unit: "ops/s", N: len(w.passes)}
		rec.Metrics["ops_per_ref_s"] = value{Value: w.opsPerRefSecond(), Unit: "ops/ref_s", N: len(w.passes)}
		rec.Metrics["alloc_kb_per_op"] = value{Value: float64(w.allocBytes) / 1024 / float64(w.cycleOps), Unit: "KB/op", N: w.cycleOps}
		rec.Metrics["allocs_per_op"] = value{Value: float64(w.mallocs) / float64(w.cycleOps), Unit: "objects/op", N: w.cycleOps}
		rec.Metrics["peak_rss_mb"] = value{Value: rss, Unit: "MB", N: 1}
	} else {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rec, err
		}
		tw, err := runWindow(wl, bp, seed, dur, false)
		pprof.StopCPUProfile()
		if err != nil {
			return rec, err
		}
		rec.Gate.OK = tw.cycleDigest() == rec.Gate.Digest
		rec.Gate.Detail = "traced cycle matches the untraced cycle"
		switch {
		case !rec.Gate.OK:
			rec.Gate.Detail = "traced cycle differs from the untraced cycle"
		case w.replayMismatch != "" || tw.replayMismatch != "":
			rec.Gate.OK, rec.Gate.Detail = false, w.replayMismatch+tw.replayMismatch
		}
		if err := layerMetrics(&rec, wl, w, tw, prof.Bytes(), bp, seed); err != nil {
			return rec, err
		}
	}
	if !rec.Gate.OK {
		rec.Failed = rec.Attempted
	}
	rec.Correct = rec.Gate.OK && (wl.plausible == nil || wl.plausible(rec.Simulated))
	return rec, nil
}

// layerMetrics fills the per-layer metrics of a traced run: CPU shares
// from the profile, counters, and layer probes.
func layerMetrics(rec *record, wl *workload, untraced, traced *window, profile []byte, bp *resolver.Blueprint, seed int64) error {
	shares, samples, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for _, layer := range cpuLayers {
		rec.Metrics["cpu."+layer] = value{Value: shares[layer], Unit: "%", N: samples}
	}
	base, tr := untraced.opsPerSecond(), traced.opsPerSecond()
	rec.Metrics["trace_overhead_pct"] = value{Value: 100 * (base - tr) / base, Unit: "%", N: len(traced.passes)}
	rec.Metrics["bytepool.hit_ratio"] = value{Value: float64(traced.poolHits) / float64(traced.poolHits+traced.poolMisses), Unit: "ratio", N: int(traced.poolHits + traced.poolMisses)}
	rec.Metrics["bytepool.misses_per_op"] = value{Value: float64(traced.poolMisses) / float64(traced.ops), Unit: "count/op", N: traced.ops}
	for _, c := range counterMetrics {
		rec.Metrics[c.Name] = value{Value: rec.Simulated[c.Name], Unit: c.Unit, N: untraced.cycleOps}
	}
	probes, err := runProbes(wl, bp, seed)
	if err != nil {
		return err
	}
	rec.Probes = probes
	for _, p := range probeMetrics {
		rec.Metrics[p.Name] = value{Value: p.pick(probes), Unit: p.Unit, N: probes[p.probe].N}
	}
	return nil
}

// counterMetrics are the per-layer counters the workloads compute from
// their samples; a workload that does not run the layer reports 0.
var counterMetrics = []metricDef{
	{"dox.handshake_bytes_per_op", "B/op", true},
	{"dox.resumed_share", "ratio", false},
	{"dnsproxy.upstream_per_query", "ratio", true},
	{"dnsproxy.coalesced_share", "ratio", false},
	{"dnsproxy.stub_hit_ratio", "ratio", false},
	{"dnsproxy.prefetch_per_query", "ratio", true},
	{"browser.dns_queries_per_load", "count", true},
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under the
// working directory, skipping hidden directories such as build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
