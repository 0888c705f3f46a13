package main

import (
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dox"
	"repro/internal/measure"
	"repro/internal/pages"
	"repro/internal/resolver"
	"repro/internal/stats"
)

// workload is one set of campaign inputs. A pass runs the campaign over
// one vantage's view of the population; the passes of one cycle, one
// per vantage, cover the whole population, so the simulated figures and
// the digest of a cycle are fixed by the seed while the number of
// passes timed depends on host speed.
type workload struct {
	name, why string
	// resolvers sizes the population (resolver.ScaledCounts).
	resolvers int
	// campaign runs one pass through the public entry point.
	campaign func(bp *resolver.Blueprint, seed int64, parallelism int) (any, error)
	// digest hashes a pass's output and counts its ops and failures.
	digest func(out any, h hash.Hash) (ops, failed int)
	// names are the query names the layer probes encode, drawn from
	// the workload's inputs.
	names func(seed int64) []string
	// simulated computes simulated-time figures and layer counters from
	// the outputs of one cycle.
	simulated func(cycle []any) map[string]float64
	// plausible, when set, checks the simulated figures against the
	// paper's findings; a run that fails it is not correct.
	plausible func(sim map[string]float64) bool
}

var workloads = []*workload{
	{
		name:      "sq-handshake",
		why:       "many short connections: warming plus measured exchange per combination, so handshakes (tlsmini, crypto, quic, tcpsim, h2/h3) dominate",
		resolvers: 313,
		campaign: func(bp *resolver.Blueprint, seed int64, par int) (any, error) {
			return measure.RunSingleQuery(measure.SingleQueryConfig{
				Blueprint:   bp,
				Seed:        seed,
				Parallelism: par,
				Protocols:   dox.AllProtocols,
				// Two rounds: tickets and tokens carry across rounds.
				Rounds: 2,
			})
		},
		digest: func(out any, h hash.Hash) (ops, failed int) {
			for _, s := range out.([]measure.SingleQuerySample) {
				fmt.Fprintf(h, "%+v\n", s)
				if !s.OK {
					failed++
				}
				ops++
			}
			return ops, failed
		},
		// The single-query campaign's default domain.
		names:     func(int64) []string { return []string{"google.com"} },
		simulated: singleQueryFigures,
		// Fig. 2 Total-row medians within 10% of the paper's on average
		// (about 5% on seeds 101–110).
		plausible: func(sim map[string]float64) bool { return sim["fig2_err_pct"] < 10 },
	},
	{
		name:      "web-pageload",
		why:       "page loads through a fresh forwarding proxy per combination: event-heavy (sim scheduler, netem links, tcpsim steady state), few handshakes, no stub cache",
		resolvers: 6,
		campaign: func(bp *resolver.Blueprint, seed int64, par int) (any, error) {
			return measure.RunWeb(measure.WebConfig{
				Blueprint:   bp,
				Seed:        seed,
				Parallelism: par,
				Protocols:   dox.Protocols,
				Pages:       pages.Top10(),
				Loads:       4,
			})
		},
		digest: func(out any, h hash.Hash) (ops, failed int) {
			for _, s := range out.([]measure.WebSample) {
				fmt.Fprintf(h, "%+v\n", s)
				if !s.OK {
					failed++
				}
				ops++
			}
			return ops, failed
		},
		names: func(int64) []string {
			var names []string
			for _, p := range pages.Top10() {
				names = append(names, p.DNSNames()...)
			}
			return names
		},
		simulated: webFigures,
		// Fig. 4's amortization: DoUDP's lead over DoQ shrinks from the
		// simplest page to the most complex one.
		plausible: func(sim map[string]float64) bool {
			return sim["fig4_simple_pct"] < sim["fig4_complex_pct"] && sim["fig4_complex_pct"] < 0
		},
	},
	{
		name:      "proxy-zipf",
		why:       "stub queries served by a caching proxy over one long-lived DoQ upstream: per-query work in dnsmsg, cache, dnsproxy and quic streams, handshakes near zero",
		resolvers: 24,
		campaign: func(bp *resolver.Blueprint, seed int64, par int) (any, error) {
			return measure.RunProxyServe(measure.ProxyServeConfig{
				Blueprint:   bp,
				Seed:        seed,
				Parallelism: par,
				Protocol:    dox.DoQ,
				Clients:     4,
				Queries:     proxyQueries,
				// A name universe five times the stub cache, so lookups,
				// inserts, evictions and prefetch writes all happen.
				Names:             1000,
				Skew:              1.2,
				StubCacheCapacity: 200,
				Coalesce:          true,
				ServeStale:        true,
				Prefetch:          true,
			})
		},
		digest: func(out any, h hash.Hash) (ops, failed int) {
			for _, s := range out.([]measure.ProxyServeSummary) {
				fmt.Fprintf(h, "%s %d %v %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
					s.Vantage, s.ResolverIdx, s.Protocol, s.Queries, s.OK, s.Refused,
					s.WindowQueries, s.WindowOK, s.ProxyQueries, s.StubHits, s.UpstreamQueries,
					s.Coalesced, s.StaleServed, s.Revalidations, s.Prefetches, s.Failures)
				hashSketch(h, s.Resolve)
				hashSketch(h, s.StaleAge)
				ops += s.Queries
				failed += s.Queries - s.OK
			}
			return ops, failed
		},
		names: func(seed int64) []string {
			z := measure.NewZipfWorkload(rand.New(rand.NewSource(seed)), 1.2, 1000)
			names := make([]string, 256)
			for i := range names {
				names[i], _ = z.Next()
			}
			return names
		},
		simulated: proxyFigures,
	},
}

// proxyQueries is the number of queries each proxy-zipf client sends:
// one per virtual second, so the upstream DoQ connection lives ten
// virtual minutes.
const proxyQueries = 600

func workloadByName(name string) (*workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

// universe is the population configuration for a seed. Every resolver
// answers every query (as E22–E24 configure it): a failed operation
// then signals a fault in the program, not the population's modelled
// silence.
func (wl *workload) universe(seed int64) resolver.UniverseConfig {
	return resolver.UniverseConfig{
		Seed:           seed,
		ResolverCounts: resolver.ScaledCounts(wl.resolvers),
		Population: resolver.PopulationParams{
			BigCertFraction: resolver.DefaultPopulation().BigCertFraction,
			ResponseRate:    1,
		},
	}
}

// vantageView restricts a blueprint to one vantage, the unit of a pass.
func vantageView(bp *resolver.Blueprint, v int) *resolver.Blueprint {
	view := *bp
	view.Vantages = bp.Vantages[v : v+1]
	return &view
}

// hashSketch feeds a sketch's observable state into h: equal counts give
// equal quantiles, so this pins the sketch for byte-identity checks.
func hashSketch(h hash.Hash, s *stats.Sketch) {
	fmt.Fprintf(h, "%d %g %g %g", s.N(), s.Sum(), s.Min(), s.Max())
	for q := 0; q <= 20; q++ {
		fmt.Fprintf(h, " %g", s.Quantile(float64(q)/20))
	}
	fmt.Fprintln(h)
}

// Paper Fig. 2 Total-row medians (ms), as E5 and E6 print them.
var (
	paperHandshake = map[dox.Protocol]float64{dox.DoTCP: 183.2, dox.DoQ: 186.7, dox.DoH: 375.8, dox.DoT: 376.6}
	paperResolve   = map[dox.Protocol]float64{dox.DoUDP: 183.8, dox.DoTCP: 184.8, dox.DoQ: 185.4, dox.DoH: 187.3, dox.DoT: 185.7}
)

// singleQueryFigures computes fig2_err_pct — the mean absolute relative
// error of the simulated Total-row medians against the paper's — and
// the dox counters.
func singleQueryFigures(cycle []any) map[string]float64 {
	hs := map[dox.Protocol][]float64{}
	rs := map[dox.Protocol][]float64{}
	var encrypted, resumed, hsBytes, ok int
	for _, out := range cycle {
		for _, s := range out.([]measure.SingleQuerySample) {
			if !s.OK {
				continue
			}
			ok++
			hs[s.Protocol] = append(hs[s.Protocol], ms(s.Handshake))
			rs[s.Protocol] = append(rs[s.Protocol], ms(s.Resolve))
			hsBytes += s.M.HandshakeTx + s.M.HandshakeRx
			if s.Protocol.Encrypted() {
				encrypted++
				if s.M.UsedResumption {
					resumed++
				}
			}
		}
	}
	var errSum float64
	var n int
	for _, fig := range []struct {
		paper map[dox.Protocol]float64
		sim   map[dox.Protocol][]float64
	}{{paperHandshake, hs}, {paperResolve, rs}} {
		for p, want := range fig.paper {
			errSum += math.Abs(stats.Median(fig.sim[p])-want) / want
			n++
		}
	}
	return map[string]float64{
		"fig2_err_pct":               100 * errSum / float64(n),
		"dox.handshake_bytes_per_op": ratio(hsBytes, ok),
		"dox.resumed_share":          ratio(resumed, encrypted),
	}
}

// Paper Fig. 4 amortization endpoints (E9): DoUDP-vs-DoQ relative PLT of
// the simplest and the most complex page, in percent.
const paperSimplePct, paperComplexPct = -10.0, -2.0

// webFigures computes fig4_err_pp the way E9 aggregates Fig. 4: per
// [vantage:resolver:page] the relative difference of the DoUDP median
// PLT against the DoQ median, pooled per page; the gap to the paper's
// endpoints is averaged over the simplest and the most complex page.
func webFigures(cycle []any) map[string]float64 {
	type combo struct {
		vantage  string
		resolver int
		page     string
	}
	plt := map[combo]map[dox.Protocol][]float64{}
	var loads, queries int
	for _, out := range cycle {
		for _, s := range out.([]measure.WebSample) {
			if !s.OK {
				continue
			}
			loads++
			queries += s.DNSQueries
			k := combo{s.Vantage, s.ResolverIdx, s.Page}
			if plt[k] == nil {
				plt[k] = map[dox.Protocol][]float64{}
			}
			plt[k][s.Protocol] = append(plt[k][s.Protocol], float64(s.PLT))
		}
	}
	perPage := map[string][]float64{}
	for k, byProto := range plt {
		base := stats.Median(byProto[dox.DoQ])
		if base == 0 || len(byProto[dox.DoUDP]) == 0 {
			continue
		}
		perPage[k.page] = append(perPage[k.page], stats.RelDiff(stats.Median(byProto[dox.DoUDP]), base))
	}
	ps := append([]*pages.Page(nil), pages.Top10()...)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].DNSQueryCount() < ps[j].DNSQueryCount() })
	simple := 100 * stats.Median(perPage[ps[0].Name])
	complex := 100 * stats.Median(perPage[ps[len(ps)-1].Name])
	return map[string]float64{
		"fig4_err_pp":                  (math.Abs(simple-paperSimplePct) + math.Abs(complex-paperComplexPct)) / 2,
		"fig4_simple_pct":              simple,
		"fig4_complex_pct":             complex,
		"browser.dns_queries_per_load": ratio(queries, loads),
	}
}

// proxyFigures computes the dnsproxy counters over a cycle's streams.
func proxyFigures(cycle []any) map[string]float64 {
	var all []measure.ProxyServeSummary
	for _, out := range cycle {
		all = append(all, out.([]measure.ProxyServeSummary)...)
	}
	m := measure.MergeProxyServeSummaries(all)
	return map[string]float64{
		"dnsproxy.upstream_per_query": ratio(m.UpstreamQueries, m.ProxyQueries),
		"dnsproxy.coalesced_share":    ratio(m.Coalesced, m.ProxyQueries),
		"dnsproxy.stub_hit_ratio":     ratio(m.StubHits, m.ProxyQueries),
		"dnsproxy.prefetch_per_query": ratio(m.Prefetches, m.ProxyQueries),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
