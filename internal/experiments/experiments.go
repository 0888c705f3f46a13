// Package experiments binds workloads to the paper's tables and figures:
// one registry entry per artifact (see DESIGN.md §4), each producing a
// textual report comparing the measured shape to the paper's published
// numbers. The cmd/experiments binary and the repository's benchmarks
// drive this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/dox"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/netem"
	"repro/internal/pages"
	"repro/internal/quic"
	"repro/internal/report"
	"repro/internal/resolver"
	"repro/internal/scan"
	"repro/internal/stats"
)

// Config scales the campaigns. The defaults run every experiment in a
// few seconds; Full() reproduces the paper's population sizes.
type Config struct {
	Seed int64
	// Resolvers is the verified-resolver population size (paper: 313).
	Resolvers int
	// Rounds of the single-query campaign (paper: 84 = 2-hourly for a
	// week).
	Rounds int
	// WebLoads per combination (paper: 4).
	WebLoads int
	// WebPages caps the page list (paper: 10).
	WebPages int
	// WebResolvers caps the resolver count for web campaigns (they are
	// far more expensive per combination).
	WebResolvers int
	// ScanScale divides the scan population (1 = the paper's 1216).
	ScanScale int
	// CacheQueries is the per-[vantage:resolver] Zipf stream length of
	// the cache-workload campaigns (E16).
	CacheQueries int
	// CacheNames sizes the Zipf name universe of those campaigns.
	CacheNames int
	// Loss is the path loss rate. Zero selects the 0.3% default; a
	// genuinely lossless configuration uses resolver.NoLoss (E17 builds
	// its clean cached baseline that way regardless of this knob).
	Loss float64
	// RacingPolicy restricts E25's middlebox grid to one named policy
	// from measure.MiddleboxPolicies (empty = the full grid).
	RacingPolicy string
	// Parallelism sizes the campaign worker pools and the number of
	// experiments RunAll executes concurrently (0 = GOMAXPROCS). It
	// scales wall time only: campaign shard plans and seeds never depend
	// on it, so reports are byte-identical at parallelism 1 and N.
	Parallelism int
}

// Default returns a configuration that keeps every experiment fast while
// preserving the distributions' shape.
func Default() Config {
	return Config{
		Seed:         2022,
		Resolvers:    48,
		Rounds:       1,
		WebLoads:     2,
		WebPages:     10,
		WebResolvers: 6,
		ScanScale:    8,
		CacheQueries: 250,
		CacheNames:   400,
		Loss:         0.003,
	}
}

// Full returns the paper-scale configuration (slow: minutes of wall
// time).
func Full() Config {
	c := Default()
	c.Resolvers = 313
	c.Rounds = 4
	c.WebLoads = 4
	c.WebResolvers = 24
	c.ScanScale = 1
	c.CacheQueries = 2000
	c.CacheNames = 4000
	return c
}

// Experiment is one reproducible artifact.
type Experiment struct {
	ID       string
	Artifact string
	About    string
	Run      func(r *Runner) (string, error)
}

// Runner caches campaign results so experiments sharing a workload (E3
// through E6 all consume the single-query campaign, E1 and E2 the scan)
// run it once. A Runner is safe for concurrent use by RunAll: each
// cached campaign is a once, so the independent campaigns (scan,
// single-query, web, ...) can overlap.
type Runner struct {
	Cfg Config

	sq, sqH3, burst once[[]measure.SingleQuerySample]
	web, webH3      once[[]measure.WebSample]
	funnel          once[scan.FunnelResult]
	access          once[[]measure.AccessGridCell]
	accessWeb       once[[]measure.AccessWebGridCell]
}

// once memoizes one campaign. The first caller of get runs it while
// later callers wait for the cached result; a failed run goes back to
// its caller uncached, so the next caller runs the campaign again.
type once[T any] struct {
	mu   sync.Mutex
	val  T
	done bool
}

func (o *once[T]) get(run func() (T, error)) (T, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.done {
		v, err := run()
		if err != nil {
			var zero T
			return zero, err
		}
		o.val, o.done = v, true
	}
	return o.val, nil
}

// NewRunner creates a Runner for cfg.
func NewRunner(cfg Config) *Runner { return &Runner{Cfg: cfg} }

func (r *Runner) blueprint(seedOffset int64, resolvers int, mutate func(*resolver.Profile)) (*resolver.Blueprint, error) {
	return resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           r.Cfg.Seed + seedOffset,
		ResolverCounts: resolver.ScaledCounts(resolvers),
		Loss:           r.Cfg.Loss,
		MutateProfile:  mutate,
	})
}

// singleQuery runs one single-query campaign of protos (nil = all five
// paper transports) over a fresh blueprint at seedOffset.
func (r *Runner) singleQuery(seedOffset int64, protos []dox.Protocol) ([]measure.SingleQuerySample, error) {
	bp, err := r.blueprint(seedOffset, r.Cfg.Resolvers, nil)
	if err != nil {
		return nil, err
	}
	return measure.RunSingleQuery(measure.SingleQueryConfig{
		Blueprint:   bp,
		Parallelism: r.Cfg.Parallelism,
		Rounds:      r.Cfg.Rounds,
		Protocols:   protos,
	})
}

// runWeb runs one web campaign over a fresh blueprint at seedOffset:
// wc carries the campaign's own fields, runWeb fills in the blueprint,
// the worker pool, the page list and the load count.
func (r *Runner) runWeb(seedOffset int64, wc measure.WebConfig) ([]measure.WebSample, error) {
	bp, err := r.blueprint(seedOffset, r.Cfg.WebResolvers, nil)
	if err != nil {
		return nil, err
	}
	wc.Blueprint = bp
	wc.Parallelism = r.Cfg.Parallelism
	wc.Pages = pages.Top10()[:r.Cfg.WebPages]
	wc.Loads = r.Cfg.WebLoads
	return measure.RunWeb(wc)
}

// SingleQuery runs (once) the default single-query campaign, sharded
// across the worker pool.
func (r *Runner) SingleQuery() ([]measure.SingleQuerySample, error) {
	return r.sq.get(func() ([]measure.SingleQuerySample, error) { return r.singleQuery(0, nil) })
}

// Web runs (once) the default web campaign, sharded across the worker
// pool.
func (r *Runner) Web() ([]measure.WebSample, error) {
	return r.web.get(func() ([]measure.WebSample, error) { return r.runWeb(1, measure.WebConfig{}) })
}

// doh3Protocols is the sixth-transport comparison set of E13–E15: the
// two QUIC transports side by side with DoH over HTTP/2.
var doh3Protocols = []dox.Protocol{dox.DoQ, dox.DoH, dox.DoH3}

// SingleQueryDoH3 runs (once) the sixth-transport single-query campaign
// consumed by E13 and E14: DoQ, DoH and DoH3 over a fresh blueprint.
func (r *Runner) SingleQueryDoH3() ([]measure.SingleQuerySample, error) {
	return r.sqH3.get(func() ([]measure.SingleQuerySample, error) { return r.singleQuery(50, doh3Protocols) })
}

// WebDoH3 runs (once) the sixth-transport web campaign consumed by E15.
func (r *Runner) WebDoH3() ([]measure.WebSample, error) {
	return r.webH3.get(func() ([]measure.WebSample, error) {
		return r.runWeb(60, measure.WebConfig{Protocols: doh3Protocols})
	})
}

// All returns the registry in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Artifact: "§2 scan funnel", About: "1216 DoQ resolvers; 548/706/1149/732 per protocol; 313 verified", Run: runE1},
		{ID: "E2", Artifact: "Fig. 1", About: "geographic and AS distribution of the verified resolvers", Run: runE2},
		{ID: "E3", Artifact: "§3 shares", About: "QUIC/DoQ/TLS version and feature shares", Run: runE3},
		{ID: "E4", Artifact: "Table 1", About: "median single-query sizes and sample counts", Run: runE4},
		{ID: "E5", Artifact: "Fig. 2a", About: "median handshake time per protocol and vantage point", Run: runE5},
		{ID: "E6", Artifact: "Fig. 2b", About: "median resolve time per protocol and vantage point", Run: runE6},
		{ID: "E7", Artifact: "Fig. 3a", About: "CDF of relative FCP differences vs DoUDP", Run: runE7},
		{ID: "E8", Artifact: "Fig. 3b", About: "CDF of relative PLT differences vs DoUDP", Run: runE8},
		{ID: "E9", Artifact: "Fig. 4", About: "PLT grid: DoQ baseline vs DoUDP and DoH per vantage and page", Run: runE9},
		{ID: "E10", Artifact: "§3.1 ablation", About: "DoQ without Session Resumption (amplification limit)", Run: runE10},
		{ID: "E11", Artifact: "§4 ablation", About: "0-RTT enabled at resolvers (future work)", Run: runE11},
		{ID: "E12", Artifact: "§3.2 ablation", About: "DoT proxy in-flight bug vs fixed connection reuse", Run: runE12},
		{ID: "E13", Artifact: "§5 DoH3 sizes", About: "Table-1-style single-query sizes with DoH3: does QPACK+QUIC close the DoH gap?", Run: runE13},
		{ID: "E14", Artifact: "§5 DoH3 timing", About: "handshake and resolve medians per vantage: DoH3 vs DoQ vs DoH", Run: runE14},
		{ID: "E15", Artifact: "§5 DoH3 web", About: "PLT grid with DoH3 as baseline vs DoQ and DoH", Run: runE15},
		{ID: "E16", Artifact: "§4 caching", About: "resolver-cache hit ratio vs Zipf skew and TTL under a many-user workload", Run: runE16},
		{ID: "E17", Artifact: "§4 cached split", About: "cached vs uncached resolve medians per transport on a lossless baseline", Run: runE17},
		{ID: "E18", Artifact: "§4 warm web", About: "PLT grid under a warm shared (stub) cache: does the encrypted penalty survive?", Run: runE18},
		{ID: "E19", Artifact: "§3 access grid", About: "handshake and resolve medians per transport across access-network profiles", Run: runE19},
		{ID: "E20", Artifact: "§3.1 burst loss", About: "resolve tails under Gilbert-Elliott burst loss: DoQ recovery vs the TCP transports", Run: runE20},
		{ID: "E21", Artifact: "§3.2 access web", About: "PLT across access-network profiles: where does the encrypted penalty hurt most?", Run: runE21},
		{ID: "E22", Artifact: "§6 coalescing", About: "in-flight query coalescing: upstream-QPS reduction and tail latency under aligned cohorts", Run: runE22},
		{ID: "E23", Artifact: "§6 serve-stale", About: "RFC 8767 availability and answer-staleness CDF across a scheduled upstream outage", Run: runE23},
		{ID: "E24", Artifact: "§6 prefetch", About: "TTL-expiry prefetch of the Zipf head: stub hit-ratio and p95 resolve lift", Run: runE24},
		{ID: "E25", Artifact: "§7 racing", About: "happy-eyeballs transport racing per middlebox policy: fallback penalty and winning transport", Run: runE25},
		{ID: "E26", Artifact: "§7 migration", About: "PLT with a mid-load wifi-to-4g flip: QUIC connection migration vs TCP reconnect", Run: runE26},
		{ID: "E27", Artifact: "§7 failover", About: "availability through a primary-resolver outage: pinned vs multi-upstream failover", Run: runE27},
	}
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Result is one experiment's report (or failure).
type Result struct {
	Experiment Experiment
	Output     string
	Err        error
}

// RunAll executes the given experiments on a shared Runner, up to
// parallelism at a time (0 = GOMAXPROCS), and returns results in input
// order. Experiments sharing a campaign serialize on the Runner's cache,
// so each campaign still runs exactly once; independent experiments
// (scan, ablations, web) proceed concurrently. Reports are identical at
// any parallelism because every campaign underneath is.
//
// Concurrent experiments each spawn their own campaign worker pool, so
// the total goroutine count can exceed parallelism; goroutines are
// cheap, and actual simultaneous execution is bounded by GOMAXPROCS
// (which cmd/experiments pins to -parallel N).
func RunAll(r *Runner, exps []Experiment, parallelism int) []Result {
	return RunAllFunc(r, exps, parallelism, nil)
}

// RunAllFunc is RunAll with streaming: emit, when non-nil, receives each
// result in input order as soon as it and all earlier experiments have
// completed, so a long run shows progress without giving up the
// input-ordered (and therefore parallelism-independent) output.
func RunAllFunc(r *Runner, exps []Experiment, parallelism int, emit func(Result)) []Result {
	results := make([]Result, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		campaign.Run(r.Cfg.Seed, len(exps), parallelism, func(s campaign.Shard) struct{} {
			e := exps[s.Index]
			out, err := e.Run(r)
			results[s.Index] = Result{Experiment: e, Output: out, Err: err}
			close(done[s.Index])
			return struct{}{}
		})
	}()
	for i := range exps {
		<-done[i]
		if emit != nil {
			emit(results[i])
		}
	}
	<-finished
	return results
}

// --- E1 / E2: scan ---

// runScan runs (once) the sharded discovery funnel.
func (r *Runner) runScan() (scan.FunnelResult, error) {
	return r.funnel.get(func() (scan.FunnelResult, error) {
		return scan.RunFunnel(scan.FunnelConfig{
			Seed:        r.Cfg.Seed + 10,
			Spec:        scan.PaperSpec().Scaled(r.Cfg.ScanScale),
			Parallelism: r.Cfg.Parallelism,
		})
	})
}

func runE1(r *Runner) (string, error) {
	res, err := r.runScan()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  fmt.Sprintf("E1 — scan funnel (population scale 1/%d)", r.Cfg.ScanScale),
		Header: []string{"stage", "measured", "paper(scaled)", "paper(full)"},
	}
	scale := func(v int) string { return fmt.Sprint(v / r.Cfg.ScanScale) }
	t.Add("addresses probed", fmt.Sprint(res.Probed), "-", "-")
	t.Add("QUIC responsive", fmt.Sprint(res.QUICResponsive), "-", "-")
	t.Add("DoQ verified (ALPN)", fmt.Sprint(res.DoQVerified), scale(1216), "1216")
	t.Add("  + DoUDP", fmt.Sprint(res.Support[dox.DoUDP]), scale(548), "548")
	t.Add("  + DoTCP", fmt.Sprint(res.Support[dox.DoTCP]), scale(706), "706")
	t.Add("  + DoT", fmt.Sprint(res.Support[dox.DoT]), scale(1149), "1149")
	t.Add("  + DoH", fmt.Sprint(res.Support[dox.DoH]), scale(732), "732")
	t.Add("  + DoH3 (beyond paper)", fmt.Sprint(res.Support[dox.DoH3]), "-", "-")
	t.Add("verified DoX resolvers", fmt.Sprint(res.Verified), scale(313), "313")
	return t.String(), nil
}

func runE2(r *Runner) (string, error) {
	res, err := r.runScan()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E2 — verified resolver distribution (Fig. 1)",
		Header: []string{"continent", "measured", "paper(full)"},
	}
	paper := map[geo.Continent]int{geo.EU: 130, geo.AS: 128, geo.NA: 49, geo.AF: 2, geo.OC: 2, geo.SA: 2}
	for _, c := range geo.Continents {
		t.Add(c.String(), fmt.Sprint(res.ByContinent[c]), fmt.Sprint(paper[c]))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("Top Autonomous Systems (paper: ORACLE 15.0%, DIGITALOCEAN 6.4%, MNGTNET 5.8%, OVHCLOUD 5.1%):\n")
	keys := report.KeysByValue(res.ByASN)
	for i, as := range keys {
		if i >= 4 {
			break
		}
		fmt.Fprintf(&sb, "  %-14s %3d (%s)\n", as, res.ByASN[as], report.Pct(res.ByASN[as], res.Verified))
	}
	return sb.String(), nil
}

// --- E3: version and feature shares ---

func runE3(r *Runner) (string, error) {
	samples, err := r.SingleQuery()
	if err != nil {
		return "", err
	}
	quicVer := map[string]int{}
	alpn := map[string]int{}
	tlsVer := map[string]int{}
	doqN, encN, resumed, zrtt, vn, tok := 0, 0, 0, 0, 0, 0
	for _, s := range samples {
		if !s.OK {
			continue
		}
		if s.Protocol == dox.DoQ {
			doqN++
			quicVer[quic.VersionName(s.M.QUICVersion)]++
			alpn[s.M.DoQALPN]++
			if s.M.UsedVN {
				vn++
			}
			if s.M.UsedToken {
				tok++
			}
		}
		if s.Protocol.Encrypted() {
			encN++
			tlsVer[s.M.TLSVersion.String()]++
			if s.M.UsedResumption {
				resumed++
			}
			if s.M.Used0RTT {
				zrtt++
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("E3 — protocol version and feature shares (§3)\n")
	sb.WriteString("QUIC versions (paper: v1 89.1%, draft-34 8.5%, draft-32 1.8%, draft-29 0.6%):\n")
	for _, k := range report.KeysByValue(quicVer) {
		fmt.Fprintf(&sb, "  %-10s %s\n", k, report.Pct(quicVer[k], doqN))
	}
	sb.WriteString("DoQ versions (paper: doq-i02 87.4%, doq-i03 10.8%, doq-i00 1.8%):\n")
	for _, k := range report.KeysByValue(alpn) {
		fmt.Fprintf(&sb, "  %-10s %s\n", k, report.Pct(alpn[k], doqN))
	}
	sb.WriteString("TLS versions (paper: ~99% TLS 1.3):\n")
	for _, k := range report.KeysByValue(tlsVer) {
		fmt.Fprintf(&sb, "  %-10s %s\n", k, report.Pct(tlsVer[k], encN))
	}
	fmt.Fprintf(&sb, "Session Resumption used: %s (paper: all TLS 1.3 measurements)\n", report.Pct(resumed, encN))
	fmt.Fprintf(&sb, "0-RTT used: %s (paper: no resolver supports it)\n", report.Pct(zrtt, encN))
	fmt.Fprintf(&sb, "DoQ address-validation token reused: %s; Version Negotiation on measured conn: %s (paper: avoided via caching)\n",
		report.Pct(tok, doqN), report.Pct(vn, doqN))
	return sb.String(), nil
}

// --- E4: Table 1 ---

// byteSizes holds one protocol's per-sample Table 1 byte counts.
type byteSizes struct{ total, hsUp, hsDown, q, resp []float64 }

// sizeTable renders Table 1 for protos: one row of per-protocol median
// byte counts per byteSizes field, then the OK sample counts. Each row ends
// with the paper's figure from paper (byte rows first, sample row
// last) under paperHeader. It also returns the per-protocol sizes.
func sizeTable(samples []measure.SingleQuerySample, protos []dox.Protocol, title, paperHeader string, paper [6]string) (*report.Table, map[dox.Protocol]*byteSizes) {
	per := map[dox.Protocol]*byteSizes{}
	for _, p := range protos {
		per[p] = &byteSizes{}
	}
	for _, s := range samples {
		if !s.OK {
			continue
		}
		z := per[s.Protocol]
		z.hsUp = append(z.hsUp, float64(s.M.HandshakeTx))
		z.hsDown = append(z.hsDown, float64(s.M.HandshakeRx))
		z.q = append(z.q, float64(s.M.QueryTx))
		z.resp = append(z.resp, float64(s.M.QueryRx))
		z.total = append(z.total, float64(s.M.HandshakeTx+s.M.HandshakeRx+s.M.QueryTx+s.M.QueryRx))
	}
	header := []string{"row"}
	for _, p := range protos {
		header = append(header, p.String())
	}
	t := &report.Table{Title: title, Header: append(header, paperHeader)}
	rows := []struct {
		name string
		f    func(*byteSizes) []float64
	}{
		{"Total", func(z *byteSizes) []float64 { return z.total }},
		{"Handshake C->R", func(z *byteSizes) []float64 { return z.hsUp }},
		{"Handshake R->C", func(z *byteSizes) []float64 { return z.hsDown }},
		{"DNS Query", func(z *byteSizes) []float64 { return z.q }},
		{"DNS Response", func(z *byteSizes) []float64 { return z.resp }},
	}
	for i, row := range rows {
		cells := []string{row.name}
		for _, p := range protos {
			cells = append(cells, fmt.Sprintf("%.0f", stats.Median(row.f(per[p]))))
		}
		t.Add(append(cells, paper[i])...)
	}
	cells := []string{"Samples OK"}
	for _, p := range protos {
		cells = append(cells, fmt.Sprint(len(per[p].total)))
	}
	t.Add(append(cells, paper[len(rows)])...)
	return t, per
}

func runE4(r *Runner) (string, error) {
	samples, err := r.SingleQuery()
	if err != nil {
		return "", err
	}
	t, _ := sizeTable(samples, dox.Protocols, "E4 — Table 1: median single-query sizes (bytes of IP payload)", "paper(DoQ/DoH/DoT)",
		[6]string{"4444/2163/1522", "2564/569/551", "1304/211/211", "190/579/261", "386/804/499", "~155-160k each (paper)"})
	return t.String(), nil
}

// --- E5 / E6: Fig. 2 matrices ---

func fig2Matrix(samples []measure.SingleQuerySample, title string, f func(measure.SingleQuerySample) time.Duration, protos []dox.Protocol, skipUDP bool) string {
	rowsOrder := append([]string{"Total"}, vantageNames()...)
	header := []string{"vantage"}
	for _, p := range protos {
		header = append(header, p.String())
	}
	t := &report.Table{Title: title, Header: header}
	for _, rowName := range rowsOrder {
		cells := []string{rowName}
		for _, p := range protos {
			if p == dox.DoUDP && skipUDP {
				cells = append(cells, "-")
				continue
			}
			var xs []float64
			for _, s := range samples {
				if !s.OK || s.Protocol != p {
					continue
				}
				if rowName != "Total" && s.Vantage != rowName {
					continue
				}
				xs = append(xs, float64(f(s)))
			}
			cells = append(cells, report.Ms(stats.Median(xs)))
		}
		t.Add(cells...)
	}
	return t.String()
}

func vantageNames() []string {
	var out []string
	for _, vp := range geo.VantagePoints() {
		out = append(out, vp.Name)
	}
	return out
}

func runE5(r *Runner) (string, error) {
	samples, err := r.SingleQuery()
	if err != nil {
		return "", err
	}
	s := fig2Matrix(samples, "E5 — Fig. 2a: median handshake time (ms)", handshake, dox.Protocols, true)
	return s + "paper Total row: DoTCP 183.2, DoQ 186.7, DoH 375.8, DoT 376.6\n", nil
}

func runE6(r *Runner) (string, error) {
	samples, err := r.SingleQuery()
	if err != nil {
		return "", err
	}
	s := fig2Matrix(samples, "E6 — Fig. 2b: median resolve time (ms)", resolve, dox.Protocols, false)
	return s + "paper Total row: DoUDP 183.8, DoTCP 184.8, DoQ 185.4, DoH 187.3, DoT 185.7\n", nil
}

// --- E7 / E8 / E9: web figures ---

// comboKey is one [vantage:resolver:page] combination, the unit over
// which the paper takes each protocol's median page-load metric.
type comboKey struct {
	vantage  string
	resolver int
	page     string
}

// comboMedians groups the OK samples by combination and protocol and
// returns each group's median metric.
func comboMedians(samples []measure.WebSample, metric func(measure.WebSample) time.Duration) map[comboKey]map[dox.Protocol]float64 {
	groups := map[comboKey]map[dox.Protocol][]float64{}
	for _, s := range samples {
		if !s.OK {
			continue
		}
		k := comboKey{s.Vantage, s.ResolverIdx, s.Page}
		if groups[k] == nil {
			groups[k] = map[dox.Protocol][]float64{}
		}
		groups[k][s.Protocol] = append(groups[k][s.Protocol], float64(metric(s)))
	}
	out := make(map[comboKey]map[dox.Protocol]float64, len(groups))
	for k, perProto := range groups {
		med := make(map[dox.Protocol]float64, len(perProto))
		for p, xs := range perProto {
			med[p] = stats.Median(xs)
		}
		out[k] = med
	}
	return out
}

// relDiffSeries computes, for each [vantage,resolver,page] combination,
// the relative difference of each protocol's per-combo median metric
// against the baseline protocol.
func relDiffSeries(samples []measure.WebSample, metric func(measure.WebSample) time.Duration, baseline dox.Protocol) map[dox.Protocol][]float64 {
	out := map[dox.Protocol][]float64{}
	for _, med := range comboMedians(samples, metric) {
		b := med[baseline]
		if b == 0 {
			continue
		}
		for p, m := range med {
			if p != baseline {
				out[p] = append(out[p], stats.RelDiff(m, b))
			}
		}
	}
	return out
}

// cellKey is one (vantage, page) cell of the Fig. 4 grid.
type cellKey struct{ vantage, page string }

// pltGrid is the Fig. 4 aggregation: per (vantage, page) cell, the
// relative difference of each compared protocol's per-combination
// median PLT against the base protocol's.
type pltGrid struct {
	vs    [2]dox.Protocol
	cells map[cellKey]map[dox.Protocol][]float64
	// slower counts the combinations where vs[1]'s median PLT exceeds
	// the base's, out of the combos that measured both.
	slower, combos int
}

func newPLTGrid(samples []measure.WebSample, base dox.Protocol, vs [2]dox.Protocol) pltGrid {
	g := pltGrid{vs: vs, cells: map[cellKey]map[dox.Protocol][]float64{}}
	for k, med := range comboMedians(samples, plt) {
		b := med[base]
		if b == 0 {
			continue
		}
		ck := cellKey{k.vantage, k.page}
		if g.cells[ck] == nil {
			g.cells[ck] = map[dox.Protocol][]float64{}
		}
		for _, p := range vs {
			if m, ok := med[p]; ok {
				g.cells[ck][p] = append(g.cells[ck][p], stats.RelDiff(m, b))
			}
		}
		if m, ok := med[vs[1]]; ok {
			g.combos++
			if m > b {
				g.slower++
			}
		}
	}
	return g
}

// table renders the grid with one row per vantage and one column per
// page; a cell reads "vs[0]|vs[1]" median relative PLT, or "-" when no
// combination reached it.
func (g pltGrid) table(title string, ps []*pages.Page) *report.Table {
	header := []string{"vantage"}
	for _, p := range ps {
		header = append(header, p.Name)
	}
	t := &report.Table{Title: title, Header: header}
	for _, vp := range vantageNames() {
		row := []string{vp}
		for _, p := range ps {
			m := g.cells[cellKey{vp, p.Name}]
			if m == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, stats.FormatPct(stats.Median(m[g.vs[0]]))+"|"+stats.FormatPct(stats.Median(m[g.vs[1]])))
		}
		t.Add(row...)
	}
	return t
}

// pooled gathers p's relative differences across the cells keep
// selects, sorted.
func (g pltGrid) pooled(p dox.Protocol, keep func(cellKey) bool) []float64 {
	var xs []float64
	for k, m := range g.cells {
		if keep(k) {
			xs = append(xs, m[p]...)
		}
	}
	sort.Float64s(xs)
	return xs
}

func fig3(samples []measure.WebSample, title string, metric func(measure.WebSample) time.Duration) string {
	series := relDiffSeries(samples, metric, dox.DoUDP)
	var sb strings.Builder
	sb.WriteString(title + "\n")
	thresholds := []float64{0, 0.10, 0.20}
	for _, p := range []dox.Protocol{dox.DoQ, dox.DoT, dox.DoH, dox.DoTCP} {
		c := stats.NewCDF(series[p])
		sb.WriteString(report.CDFSummary(p.String(), c, thresholds, -0.2, 0.8) + "\n")
	}
	return sb.String()
}

func runE7(r *Runner) (string, error) {
	samples, err := r.Web()
	if err != nil {
		return "", err
	}
	out := fig3(samples, "E7 — Fig. 3a: relative FCP difference vs DoUDP (per-combo medians)",
		func(s measure.WebSample) time.Duration { return s.FCP })
	return out + "paper: ~40% of DoQ loads delay FCP by <=10%; DoT/DoH delay >20% at that fraction\n", nil
}

func runE8(r *Runner) (string, error) {
	samples, err := r.Web()
	if err != nil {
		return "", err
	}
	out := fig3(samples, "E8 — Fig. 3b: relative PLT difference vs DoUDP (per-combo medians)", plt)
	return out + "paper: <15% of DoQ loads increase PLT by >15%; >40% of DoH loads do\n", nil
}

func runE9(r *Runner) (string, error) {
	samples, err := r.Web()
	if err != nil {
		return "", err
	}
	g := newPLTGrid(samples, dox.DoQ, [2]dox.Protocol{dox.DoUDP, dox.DoH})
	var sb strings.Builder
	sb.WriteString(g.table("E9 — Fig. 4: median relative PLT vs DoQ baseline (DoUDP | DoH), per vantage and page", pages.Top10()).String())
	fmt.Fprintf(&sb, "DoQ faster than DoH in %s of [vantage:resolver:page] combinations (paper: DoQ mostly improves on DoH; up to 10%% for simple pages)\n",
		report.Pct(g.slower, g.combos))
	// Amortization: rel diff DoUDP-vs-DoQ per page (negative = DoUDP faster).
	sb.WriteString("Amortization (median DoUDP-vs-DoQ rel. PLT per page; paper: -10% simple pages -> ~-2% complex):\n")
	ps := pages.Top10()
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].DNSQueryCount() < ps[j].DNSQueryCount() })
	for _, pg := range ps {
		xs := g.pooled(dox.DoUDP, func(k cellKey) bool { return k.page == pg.Name })
		if len(xs) > 0 {
			fmt.Fprintf(&sb, "  %-10s (%d queries): %s\n", pg.Name, pg.DNSQueryCount(), stats.FormatPct(stats.Median(xs)))
		}
	}
	return sb.String(), nil
}

// --- E10 / E11 / E12: ablations ---

func runE10(r *Runner) (string, error) {
	bp, err := r.blueprint(20, r.Cfg.Resolvers, nil)
	if err != nil {
		return "", err
	}
	with, err := measure.RunSingleQuery(measure.SingleQueryConfig{
		Blueprint: bp, Parallelism: r.Cfg.Parallelism,
		Protocols: []dox.Protocol{dox.DoQ, dox.DoH, dox.DoT},
	})
	if err != nil {
		return "", err
	}
	without, err := measure.RunSingleQuery(measure.SingleQueryConfig{
		Blueprint: bp, Parallelism: r.Cfg.Parallelism,
		Protocols: []dox.Protocol{dox.DoQ, dox.DoH, dox.DoT}, DisableResumption: true,
	})
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E10 — handshake medians with vs without Session Resumption (ms)",
		Header: []string{"protocol", "resumed", "cold", "penalty"},
	}
	for _, p := range []dox.Protocol{dox.DoQ, dox.DoH, dox.DoT} {
		a := protoMedian(with, p, handshake)
		b := protoMedian(without, p, handshake)
		t.Add(p.String(), report.Ms(a), report.Ms(b), stats.FormatPct(stats.RelDiff(b, a)))
	}
	return t.String() + "paper: ~40% of cold DoQ handshakes pay +1 RTT (amplification limit); Session Resumption removes it\n", nil
}

// protoMedian is the median of f over p's OK samples.
func protoMedian(samples []measure.SingleQuerySample, p dox.Protocol, f func(measure.SingleQuerySample) time.Duration) float64 {
	var xs []float64
	for _, s := range samples {
		if s.OK && s.Protocol == p {
			xs = append(xs, float64(f(s)))
		}
	}
	return stats.Median(xs)
}

func handshake(s measure.SingleQuerySample) time.Duration { return s.Handshake }

func resolve(s measure.SingleQuerySample) time.Duration { return s.Resolve }

func plt(s measure.WebSample) time.Duration { return s.PLT }

func runE11(r *Runner) (string, error) {
	mk := func(zeroRTT bool) ([]measure.SingleQuerySample, error) {
		bp, err := r.blueprint(30, r.Cfg.Resolvers, func(p *resolver.Profile) {
			p.AcceptEarlyData = zeroRTT
		})
		if err != nil {
			return nil, err
		}
		return measure.RunSingleQuery(measure.SingleQueryConfig{
			Blueprint: bp, Parallelism: r.Cfg.Parallelism,
			Protocols: []dox.Protocol{dox.DoQ}, Use0RTT: zeroRTT,
		})
	}
	base, err := mk(false)
	if err != nil {
		return "", err
	}
	early, err := mk(true)
	if err != nil {
		return "", err
	}
	total := func(samples []measure.SingleQuerySample) float64 {
		var xs []float64
		for _, s := range samples {
			if s.OK {
				xs = append(xs, float64(s.Total))
			}
		}
		return stats.Median(xs)
	}
	used := 0
	okN := 0
	for _, s := range early {
		if s.OK {
			okN++
			if s.M.Used0RTT {
				used++
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("E11 — 0-RTT at resolvers (the paper's future work, §4)\n")
	fmt.Fprintf(&sb, "median DoQ total response time (connect to answer): baseline %sms, with 0-RTT %sms (0-RTT used in %s of sessions)\n",
		report.Ms(total(base)), report.Ms(total(early)), report.Pct(used, okN))
	sb.WriteString("expectation: 0-RTT shifts DoQ total response time close to DoUDP's single round trip\n")
	return sb.String(), nil
}

func runE12(r *Runner) (string, error) {
	run := func(fixed bool) ([]measure.WebSample, error) {
		return r.runWeb(40, measure.WebConfig{Protocols: []dox.Protocol{dox.DoUDP, dox.DoT}, FixDoTReuse: fixed})
	}
	buggy, err := run(false)
	if err != nil {
		return "", err
	}
	fixed, err := run(true)
	if err != nil {
		return "", err
	}
	med := func(samples []measure.WebSample) float64 {
		return stats.Median(relDiffSeries(samples, plt, dox.DoUDP)[dox.DoT])
	}
	var sb strings.Builder
	sb.WriteString("E12 — DoT proxy in-flight bug (paper §3.2 root cause + community contribution)\n")
	fmt.Fprintf(&sb, "median DoT PLT penalty vs DoUDP: buggy proxy %s, fixed proxy %s\n",
		stats.FormatPct(med(buggy)), stats.FormatPct(med(fixed)))
	sb.WriteString("paper: the bug repeats the full DoT handshake in ~60% of page loads, making DoT look worse than DoH;\n")
	sb.WriteString("the authors' upstream fix (reproduced by FixDoTReuse) removes the artifact\n")
	return sb.String(), nil
}

// --- E13 / E14 / E15: the sixth transport (DoH3) ---

// runE13 answers the paper's §5 open question in Table 1 terms: once DoH
// rides HTTP/3 over the same QUIC stack as DoQ, how much of its size
// overhead survives? QPACK's static-table references replace the
// first-request HPACK literals, the HTTP/2 preface and TCP+TLS framing
// disappear, and the remaining gap to DoQ is pure HTTP framing.
func runE13(r *Runner) (string, error) {
	samples, err := r.SingleQueryDoH3()
	if err != nil {
		return "", err
	}
	t, per := sizeTable(samples, doh3Protocols, "E13 — Table-1-style median single-query sizes with DoH3 (bytes of IP payload)", "paper(DoQ/DoH)",
		[6]string{"4444/2163", "2564/569", "1304/211", "190/579", "386/804", "no DoH3 in paper (§5)"})
	var sb strings.Builder
	sb.WriteString(t.String())
	qH, qH3, qQ := stats.Median(per[dox.DoH].q), stats.Median(per[dox.DoH3].q), stats.Median(per[dox.DoQ].q)
	fmt.Fprintf(&sb, "DoH3 median query: %.0f B vs DoH %.0f B (%s; QPACK static refs, no TCP/TLS layering) and DoQ %.0f B (%s; HTTP framing remains)\n",
		qH3, qH, stats.FormatPct(stats.RelDiff(qH3, qH)), qQ, stats.FormatPct(stats.RelDiff(qH3, qQ)))
	sb.WriteString("expectation (§5): moving DoH onto QUIC sheds most of the framing/header overhead but not all of DoQ's edge\n")
	return sb.String(), nil
}

func runE14(r *Runner) (string, error) {
	samples, err := r.SingleQueryDoH3()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(fig2Matrix(samples, "E14 — median handshake time per vantage: DoH3 vs DoQ vs DoH (ms)", handshake, doh3Protocols, false))
	sb.WriteString(fig2Matrix(samples, "E14 — median resolve time per vantage (ms)", resolve, doh3Protocols, false))
	sb.WriteString("expectation: DoH3 handshakes match DoQ (one combined QUIC round trip, resumed), one RTT below DoH's TCP+TLS; resolve times converge across all three\n")
	return sb.String(), nil
}

// runE15 renders the Fig. 4 grid with DoH3 as the baseline: per vantage
// and page, the median relative PLT of DoQ and DoH against DoH3.
func runE15(r *Runner) (string, error) {
	samples, err := r.WebDoH3()
	if err != nil {
		return "", err
	}
	g := newPLTGrid(samples, dox.DoH3, [2]dox.Protocol{dox.DoQ, dox.DoH})
	var sb strings.Builder
	sb.WriteString(g.table("E15 — PLT grid, DoH3 baseline: median relative PLT (DoQ | DoH), per vantage and page", pages.Top10()).String())
	fmt.Fprintf(&sb, "DoH3 faster than DoH in %s of [vantage:resolver:page] combinations (positive DoH cells = DoH slower than the DoH3 baseline)\n",
		report.Pct(g.slower, g.combos))
	sb.WriteString("expectation (§5): page loads over DoH3 sit at DoQ's level — the HTTP layer costs bytes, not round trips\n")
	return sb.String(), nil
}

// --- E16 / E17 / E18: caching and Zipf workloads ---

// cacheGridSkews and cacheGridTTLs span the E16 grid: from a nearly
// flat popularity law to a heavily concentrated one, and from a
// short-lived record to a long-lived one.
var (
	cacheGridSkews = []float64{1.05, 1.3, 2.0}
	cacheGridTTLs  = []time.Duration{30 * time.Second, 300 * time.Second, 3600 * time.Second}
)

// runE16 measures the resolver-side cache under a many-users workload:
// per (Zipf skew, record TTL) cell, a query stream with that popularity
// law runs against resolvers whose answers live for that TTL, and the
// cell reports the shared cache's hit ratio. This is the regime the
// paper appeals to when it attributes the cached/uncached resolution
// split to resolver caching — the simulator could not express it while
// every campaign query was a unique cold name.
func runE16(r *Runner) (string, error) {
	queries, names := r.Cfg.CacheQueries, r.Cfg.CacheNames
	if queries == 0 {
		queries = 250
	}
	if names == 0 {
		names = 400
	}
	header := []string{"TTL \\ skew"}
	for _, s := range cacheGridSkews {
		header = append(header, fmt.Sprintf("%.2f", s))
	}
	t := &report.Table{
		Title:  fmt.Sprintf("E16 — resolver-cache hit ratio vs Zipf skew and TTL (%d queries/stream, %d names)", queries, names),
		Header: header,
	}
	var mid measure.CacheWorkloadSummary
	for ti, ttl := range cacheGridTTLs {
		cells := []string{ttl.String()}
		for si, skew := range cacheGridSkews {
			bp, err := r.blueprint(70+int64(ti*len(cacheGridSkews)+si), r.Cfg.WebResolvers, func(p *resolver.Profile) {
				// The cell isolates cache dynamics: answer every query
				// and pin the TTL under test.
				p.ResponseRate = 1
				p.CacheTTL = ttl
			})
			if err != nil {
				return "", err
			}
			sums, err := measure.RunCacheWorkload(measure.CacheWorkloadConfig{
				Blueprint:   bp,
				Parallelism: r.Cfg.Parallelism,
				Queries:     queries,
				Names:       names,
				Skew:        skew,
			})
			if err != nil {
				return "", err
			}
			all := measure.MergeCacheSummaries(sums)
			cells = append(cells, fmt.Sprintf("%.1f%%", all.ResolverCache.HitRatio()*100))
			if ti == 1 && si == 1 {
				mid = all
			}
		}
		t.Add(cells...)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "centre cell (skew 1.30, TTL 5m): %d/%d answered; median resolve hit %s ms vs miss %s ms; %d expirations\n",
		mid.OK, mid.Queries,
		report.Ms(float64(mid.HitResolve.MedianDuration())), report.Ms(float64(mid.MissResolve.MedianDuration())),
		mid.ResolverCache.Expirations)
	sb.WriteString("expectation: hit ratio rises with skew (popular names dominate) and with TTL (fewer expirations)\n")
	return sb.String(), nil
}

// runE17 reproduces the paper's cached/uncached split per transport on
// a genuinely lossless baseline — the configuration the zero-loss trap
// made inexpressible. Both campaigns warm the session (ticket, token,
// version); the uncached arm then flushes the resolver's answer cache,
// so the only difference between the two medians is upstream recursion.
func runE17(r *Runner) (string, error) {
	bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
		Seed:           r.Cfg.Seed + 80,
		ResolverCounts: resolver.ScaledCounts(r.Cfg.Resolvers),
		Loss:           resolver.NoLoss,
	})
	if err != nil {
		return "", err
	}
	run := func(flush bool) ([]measure.SingleQuerySample, error) {
		return measure.RunSingleQuery(measure.SingleQueryConfig{
			Blueprint:          bp,
			Parallelism:        r.Cfg.Parallelism,
			FlushResolverCache: flush,
		})
	}
	cached, err := run(false)
	if err != nil {
		return "", err
	}
	uncached, err := run(true)
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E17 — median resolve time, cached vs uncached, lossless paths (ms)",
		Header: []string{"protocol", "cached", "uncached", "recursion cost"},
	}
	for _, p := range dox.Protocols {
		c := protoMedian(cached, p, resolve)
		u := protoMedian(uncached, p, resolve)
		t.Add(p.String(), report.Ms(c), report.Ms(u), stats.FormatPct(stats.RelDiff(u, c)))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("paper: cached responses collapse upstream recursion, leaving the encrypted handshake as the dominant cost;\n")
	sb.WriteString("the uncached-minus-cached gap approximates the population's median recursive-lookup latency on every transport\n")
	return sb.String(), nil
}

// runE18 renders the Fig. 4-style PLT grid under a warm shared cache:
// each combination's DNS proxy keeps a client-side answer cache that
// survives session resets, so the warming navigation leaves the
// measured loads resolving repeated names locally.
func runE18(r *Runner) (string, error) {
	run := func(warm bool) ([]measure.WebSample, error) {
		return r.runWeb(90, measure.WebConfig{Protocols: []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoH}, StubCache: warm})
	}
	cold, err := run(false)
	if err != nil {
		return "", err
	}
	warm, err := run(true)
	if err != nil {
		return "", err
	}
	vs := [2]dox.Protocol{dox.DoQ, dox.DoH}
	warmGrid := newPLTGrid(warm, dox.DoUDP, vs)
	coldGrid := newPLTGrid(cold, dox.DoUDP, vs)
	overall := func(g pltGrid, p dox.Protocol) string {
		return stats.FormatPct(stats.Median(g.pooled(p, func(cellKey) bool { return true })))
	}
	var sb strings.Builder
	sb.WriteString(warmGrid.table("E18 — PLT grid under a warm shared (stub) cache: median relative PLT vs DoUDP (DoQ | DoH)", pages.Top10()[:r.Cfg.WebPages]).String())
	fmt.Fprintf(&sb, "median PLT penalty vs DoUDP, cold proxy -> warm stub cache: DoQ %s -> %s, DoH %s -> %s\n",
		overall(coldGrid, dox.DoQ), overall(warmGrid, dox.DoQ), overall(coldGrid, dox.DoH), overall(warmGrid, dox.DoH))
	sb.WriteString("expectation: with repeated names absorbed at the stub, upstream DNS leaves the page-load critical path\n")
	sb.WriteString("and the encrypted transports' PLT penalty shrinks toward DoUDP's\n")
	return sb.String(), nil
}

// --- E19 / E20 / E21: the dynamic link model ---

// AccessGrid runs (once) the per-profile single-query grid consumed by
// E19: the same population behind each named access link.
func (r *Runner) AccessGrid() ([]measure.AccessGridCell, error) {
	return r.access.get(func() ([]measure.AccessGridCell, error) {
		return measure.RunAccessGrid(measure.AccessGridConfig{
			Seed:           r.Cfg.Seed + 100,
			ResolverCounts: resolver.ScaledCounts(r.Cfg.Resolvers),
			Loss:           r.Cfg.Loss,
			Parallelism:    r.Cfg.Parallelism,
			Rounds:         r.Cfg.Rounds,
		})
	})
}

// The E20 burst-loss schedule: the campaign alternates 60-second clean
// and bursty windows, so every shard's serial measurement loop (paced
// by QuerySpacing) keeps crossing degrade/recover boundaries. In the
// bursty windows a Gilbert-Elliott chain with ~4-datagram mean bursts
// at 45% loss replaces the baseline independent loss.
const (
	e20Period = 60 * time.Second
	// e20Steps covers over four simulated hours. The campaign packs its
	// rounds e20RoundInterval apart (not the default 2h — round spacing
	// is sampling, not a subject here), so even a -full run ends long
	// before the schedule does and the phase classification below never
	// desynchronizes. Lookup is a binary search (netem.PathAt) and the
	// per-pair step slices are shard-transient, so the step count costs
	// neither send-path time nor resident memory.
	e20Steps         = 256
	e20RoundInterval = 5 * time.Minute
)

var e20Burst = netem.BurstLoss{PGoodBad: 0.08, PBadGood: 0.25, LossBad: 0.45}

func e20Phases(baseLoss float64) []resolver.PathPhase {
	phases := make([]resolver.PathPhase, e20Steps)
	for i := range phases {
		phases[i].At = time.Duration(i) * e20Period
		if i%2 == 1 {
			phases[i].Burst = e20Burst
		} else {
			phases[i].Loss = baseLoss
		}
	}
	return phases
}

// e20InBurst classifies a sample by its shard-local measurement time,
// mirroring the installed schedule exactly: past the schedule horizon
// the last (bursty) step holds forever, so samples there classify as
// bursty rather than resuming a phantom alternation. (The default
// campaign ends hours before the horizon; this matters only for
// configurations with very large Rounds.)
func e20InBurst(at time.Duration) bool {
	step := int(at / e20Period)
	if step >= e20Steps {
		step = e20Steps - 1
	}
	return step%2 == 1
}

// BurstLossCampaign runs (once) the scheduled burst-loss campaign of
// E20.
func (r *Runner) BurstLossCampaign() ([]measure.SingleQuerySample, error) {
	return r.burst.get(func() ([]measure.SingleQuerySample, error) {
		loss := r.Cfg.Loss
		if loss == 0 {
			loss = 0.003
		}
		bp, err := resolver.NewBlueprint(resolver.UniverseConfig{
			Seed:           r.Cfg.Seed + 105,
			ResolverCounts: resolver.ScaledCounts(r.Cfg.Resolvers),
			Loss:           r.Cfg.Loss,
			PathPhases:     e20Phases(loss),
		})
		if err != nil {
			return nil, err
		}
		// Tail quantiles need samples: run at least two rounds regardless
		// of the configured default (the rounds land in different schedule
		// windows, so they also decorrelate burst luck across the grid).
		return measure.RunSingleQuery(measure.SingleQueryConfig{
			Blueprint:     bp,
			Parallelism:   r.Cfg.Parallelism,
			Rounds:        max(r.Cfg.Rounds, 2),
			RoundInterval: e20RoundInterval,
			QuerySpacing:  2 * time.Second,
		})
	})
}

// AccessWebGrid runs (once) the per-profile web grid consumed by E21.
func (r *Runner) AccessWebGrid() ([]measure.AccessWebGridCell, error) {
	return r.accessWeb.get(func() ([]measure.AccessWebGridCell, error) {
		return measure.RunAccessWebGrid(measure.AccessGridConfig{
			Seed:           r.Cfg.Seed + 110,
			ResolverCounts: resolver.ScaledCounts(r.Cfg.WebResolvers),
			Loss:           r.Cfg.Loss,
			Parallelism:    r.Cfg.Parallelism,
			Protocols:      []dox.Protocol{dox.DoUDP, dox.DoQ, dox.DoH},
			Pages:          pages.Top10()[:r.Cfg.WebPages],
			Loads:          r.Cfg.WebLoads,
		})
	})
}

// runE19 reports the paper's vantage-diversity observation on the
// access-network axis the simulator can now express: the same resolver
// population measured from behind fiber, cable, 4G, 3G and satellite
// links. Slow uplinks stretch the multi-round-trip encrypted handshakes
// far more than the single-datagram Do53 exchange, and the satellite
// profile's orbit latency dominates everything.
func runE19(r *Runner) (string, error) {
	cells, err := r.AccessGrid()
	if err != nil {
		return "", err
	}
	header := []string{"profile"}
	for _, p := range dox.Protocols {
		header = append(header, p.String())
	}
	t := &report.Table{
		Title:  "E19 — access-network grid: median handshake | resolve per transport (ms)",
		Header: header,
	}
	for _, cell := range cells {
		row := []string{cell.Profile}
		for _, p := range dox.Protocols {
			var hs, res []float64
			for _, s := range cell.Samples {
				if !s.OK || s.Protocol != p {
					continue
				}
				hs = append(hs, float64(s.Handshake))
				res = append(res, float64(s.Resolve))
			}
			if p == dox.DoUDP {
				row = append(row, "-|"+report.Ms(stats.Median(res)))
				continue
			}
			row = append(row, report.Ms(stats.Median(hs))+"|"+report.Ms(stats.Median(res)))
		}
		t.Add(row...)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("expectation: the encrypted handshake penalty grows as the access link slows (serialization of the TLS\n")
	sb.WriteString("flights) and the satellite profile's ~560ms orbit RTT multiplies every handshake round trip\n")
	return sb.String(), nil
}

// runE20 measures resolve-time tails while the vantage-resolver paths
// alternate between clean windows and Gilbert-Elliott burst-loss
// windows. This is the regime where the paper argues QUIC's loss
// recovery pays off: DoQ's probe timeout (2*srtt+30ms) undercuts the
// TCP transports' RTO (2*srtt+50ms), so in the bursty windows DoQ's
// tail sits below DoT's and DoH's while the medians stay comparable.
func runE20(r *Runner) (string, error) {
	samples, err := r.BurstLossCampaign()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title: fmt.Sprintf("E20 — resolve time under Gilbert-Elliott burst loss (60s clean / 60s bursty; bad state: %.0f%% loss, mean burst %.1f datagrams)",
			e20Burst.LossBad*100, 1/e20Burst.PBadGood),
		Header: []string{"protocol", "clean p50", "bursty p50", "bursty p90", "bursty p95", "n(bursty)"},
	}
	// The headline tail is p90: at campaign scale the p95 sample is a
	// single exchange's burst luck on whichever path happens to sit
	// there (path RTTs span 130-760ms), while p90 is stable enough to
	// show the structural recovery-timer difference.
	tail := map[dox.Protocol]float64{}
	for _, p := range dox.Protocols {
		var clean, burst []float64
		for _, s := range samples {
			if !s.OK || s.Protocol != p {
				continue
			}
			if e20InBurst(s.At) {
				burst = append(burst, float64(s.Resolve))
			} else {
				clean = append(clean, float64(s.Resolve))
			}
		}
		bc := stats.NewCDF(burst)
		tail[p] = bc.Quantile(0.90)
		t.Add(p.String(), report.Ms(stats.Median(clean)), report.Ms(bc.Median()),
			report.Ms(bc.Quantile(0.90)), report.Ms(bc.Quantile(0.95)), fmt.Sprint(len(burst)))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "bursty p90: DoQ %s ms vs DoT %s ms / DoH %s ms — %s\n",
		report.Ms(tail[dox.DoQ]), report.Ms(tail[dox.DoT]), report.Ms(tail[dox.DoH]),
		map[bool]string{true: "DoQ's loss recovery wins the tail", false: "NO DoQ tail advantage (unexpected)"}[tail[dox.DoQ] < tail[dox.DoT] && tail[dox.DoQ] < tail[dox.DoH]])
	sb.WriteString("paper (§3.1): DoQ keeps resolution times close to Do53 even under adverse paths; TCP-based transports\n")
	sb.WriteString("pay their coarser retransmission timeout in exactly these windows\n")
	return sb.String(), nil
}

// runE21 renders the PLT view of the access grid: per profile, the
// median absolute DoUDP page load time and the relative penalty of DoQ
// and DoH against it (per-combo medians, the Fig. 4 aggregation). On
// fast links the DNS protocol is visible in the totals; on slow links
// content serialization dominates and the relative encrypted penalty
// compresses — except where lossy profiles hit the TCP transports.
func runE21(r *Runner) (string, error) {
	cells, err := r.AccessWebGrid()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "E21 — PLT across access profiles: median DoUDP PLT (ms) and relative penalty (DoQ | DoH)",
		Header: []string{"profile", "PLT(DoUDP)", "DoQ", "DoH", "loads OK"},
	}
	for _, cell := range cells {
		var udp []float64
		ok := 0
		for _, s := range cell.Samples {
			if !s.OK {
				continue
			}
			ok++
			if s.Protocol == dox.DoUDP {
				udp = append(udp, float64(s.PLT))
			}
		}
		series := relDiffSeries(cell.Samples, plt, dox.DoUDP)
		t.Add(cell.Profile,
			report.Ms(stats.Median(udp)),
			stats.FormatPct(stats.Median(series[dox.DoQ])),
			stats.FormatPct(stats.Median(series[dox.DoH])),
			fmt.Sprint(ok))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("expectation: absolute PLT explodes as the downlink shrinks (content serialization through the real\n")
	sb.WriteString("link); the relative encrypted-DNS penalty is largest on fast links and compresses once content dominates\n")
	return sb.String(), nil
}
