package repro

// The benchmark harness: one sub-benchmark per registered paper
// artifact (table, figure, or ablation), each regenerating the artifact
// end to end on a scaled-down but shape-preserving campaign. Run with:
//
//	go test -bench=. -benchmem
//
// The reported ns/op is the wall time to re-run the full experiment
// (simulated campaigns execute on virtual time, so even the week-long
// single-query campaign costs only real CPU, not real hours).

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// benchConfig keeps each iteration around a second on one core while
// preserving the population distributions.
func benchConfig(seed int64) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.Resolvers = 24
	cfg.WebResolvers = 3
	cfg.WebLoads = 1
	cfg.WebPages = 10
	cfg.ScanScale = 16
	cfg.CacheQueries = 100
	cfg.CacheNames = 150
	return cfg
}

func benchExperiment(b *testing.B, e experiments.Experiment, parallelism int) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(1000 + int64(i))
		cfg.Parallelism = parallelism
		out, err := e.Run(experiments.NewRunner(cfg))
		if err != nil {
			b.Fatalf("%s: %v", e.ID, err)
		}
		if len(out) == 0 {
			b.Fatalf("%s produced no report", e.ID)
		}
	}
}

// BenchmarkExperiments regenerates every experiment in the registry
// twice: <ID> pins the campaign worker pool to one worker (the serial
// baseline), and <ID>Parallel shards it across GOMAXPROCS workers. The
// reports are byte-identical either way; cmd/bench records the
// serial/parallel ratio as the experiment's parallel speedup.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) { benchExperiment(b, e, 1) })
		b.Run(e.ID+"Parallel", func(b *testing.B) { benchExperiment(b, e, runtime.GOMAXPROCS(0)) })
	}
}
