package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runCompare summarizes result files, each the concatenated output of
// runs. With one file it prints each untraced end-to-end metric's
// median, quartiles and spread per workload, and those of the raw
// ops_per_s. With two (parent, change) it also gives a verdict per
// metric and workload by the paired-run rule: the change is better
// (worse) only when it wins (loses) at least nine of every ten pairs,
// pairing runs in file order, and the medians differ by more than the
// parent's interquartile range; otherwise the comparison is
// unresolved. It also reports whether runs of equal seed gave equal
// sample digests on both sides.
func runCompare(w io.Writer, files []string) error {
	if len(files) < 1 || len(files) > 2 {
		return fmt.Errorf("--compare takes one or two result files")
	}
	sides := make([]map[string][]record, len(files))
	for i, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return err
		}
		recs, err := parseRecords(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		sides[i] = map[string][]record{}
		for _, r := range recs {
			if !r.Traced {
				sides[i][r.Workload] = append(sides[i][r.Workload], r)
			}
		}
	}
	for _, wl := range workloads {
		parent := sides[0][wl.name]
		if len(parent) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s (%d runs", wl.name, len(parent))
		var change []record
		if len(sides) == 2 {
			change = sides[1][wl.name]
			fmt.Fprintf(w, " vs %d runs; %s", len(change), digestAgreement(parent, change))
		}
		fmt.Fprintln(w, ")")
		for _, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], recordOnly...) {
			p := metricValues(parent, m.Name)
			fmt.Fprintf(w, "   %-16s %-10s %s", m.Name, m.Unit, describe(p))
			if change != nil {
				c := metricValues(change, m.Name)
				fmt.Fprintf(w, "  |  %s  %s", describe(c), verdict(p, c, m.Lower))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func metricValues(recs []record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// describe prints median, quartiles and the spread (IQR / median).
func describe(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("median %.4g (n=%d)", median(xs), len(xs))
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("median %.4g [%.4g, %.4g] spread %.1f%% (n=%d)", q2, q1, q3, 100*(q3-q1)/math.Abs(q2), len(xs))
}

// quartiles returns the three cut points of xs (at least two values)
// with the "exclusive" method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict applies the paired-run rule to parent and change values.
func verdict(parent, change []float64, lower bool) string {
	pairs := min(len(parent), len(change))
	if pairs < 2 || len(parent) < 2 {
		return "unresolved (too few runs)"
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		d := change[i] - parent[i]
		if lower {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, pm, q3 := quartiles(parent)
	gap := median(change) - pm
	if lower {
		gap = -gap
	}
	rel := fmt.Sprintf("%+.1f%%, %d/%d pairs won", 100*(median(change)-pm)/math.Abs(pm), wins, pairs)
	switch {
	case 10*wins >= 9*pairs && gap > q3-q1:
		return "better (" + rel + ")"
	case 10*losses >= 9*pairs && -gap > q3-q1:
		return "worse (" + rel + ")"
	}
	return "unresolved (" + rel + ")"
}

// digestAgreement compares the sample digests of runs with equal seeds.
func digestAgreement(parent, change []record) string {
	bySeed := map[int64]string{}
	for _, r := range parent {
		bySeed[r.Seed] = r.Gate.Digest
	}
	same, seeds := 0, 0
	for _, r := range change {
		if d, ok := bySeed[r.Seed]; ok {
			seeds++
			if d == r.Gate.Digest {
				same++
			}
		}
	}
	return fmt.Sprintf("digests equal on %d of %d shared seeds", same, seeds)
}
