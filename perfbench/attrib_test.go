package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"runtime.gc", []string{"runtime.mallocgc", "runtime.newobject", "repro/internal/quic.(*Conn).sendPacket"}},
		{"runtime.gc", []string{"runtime.memmove", "runtime.growslice", "repro/internal/dnsmsg.(*Message).AppendEncode"}},
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}},
		{"runtime.gc", []string{"runtime.(*mspan).init", "runtime.(*mheap).allocSpan", "runtime.systemstack"}},
		{"runtime.gc", []string{"runtime._GC"}},
		// GC takes precedence over the crypto caller that allocated.
		{"runtime.gc", []string{"runtime.mallocgc", "crypto/internal/fips140/aes/gcm.seal", "repro/internal/tlsmini.(*AEADCache).Seal"}},
		{"runtime.sched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"runtime.sched", []string{"runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*World).park", "repro/internal/sim.(*Queue[...]).Pop"}},
		{"runtime.sched", []string{"runtime.lock2", "runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*World).handoff"}},
		{"crypto", []string{"crypto/internal/fips140/aes/gcm.gcmAesEnc", "crypto/cipher.(*gcmAsm).Seal", "repro/internal/tlsmini.(*AEADCache).Seal"}},
		{"crypto", []string{"runtime.memmove", "crypto/sha256.(*digest).Write", "repro/internal/tlsmini.hmacShort"}},
		// Runtime helpers count to the layer that called them.
		{"cache", []string{"runtime.mapaccess2_faststr", "repro/internal/cache.(*Cache).Lookup", "repro/internal/dnsproxy.(*Proxy).serve"}},
		{"quic", []string{"runtime.memmove", "repro/internal/quic.(*Conn).flushAcks", "repro/internal/quic.(*Conn).onPacket"}},
		{"netapi", []string{"repro/internal/netapi/simnet.(*packetConn).WriteTo", "repro/internal/dox.(*udpClient).Query"}},
		{"measure", []string{"repro/internal/stats.(*Sketch).Add", "repro/internal/measure.runProxyClient"}},
		{"measure", []string{"sort.Sort", "repro/internal/campaign.Blocks"}},
		{"other", []string{"main.main", "runtime.main", "runtime.goexit"}},
		{"other", []string{"repro/internal/lint.Run"}},
		{"other", []string{"runtime.memmove"}},
		// A name that merely starts like a scheduler function is not one.
		{"dnsmsg", []string{"runtime.sendto_stub", "repro/internal/dnsmsg.Decode"}},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestParseProfile reads a real profile written by runtime/pprof: the
// goroutine profile has this test's own stack in it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range prof.samples {
		if s.value < 1 {
			t.Errorf("sample value %d, want a goroutine count", s.value)
		}
		for _, id := range s.locations {
			for _, fn := range prof.locations[id] {
				if strings.HasSuffix(fn, "TestParseProfile") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no stack through TestParseProfile among %d samples", len(prof.samples))
	}
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, layer := range cpuLayers {
		sum += shares[layer]
	}
	if n != len(prof.samples) || sum < 99.999 || sum > 100.001 {
		t.Errorf("%d samples, shares sum to %v; want %d and 100", n, sum, len(prof.samples))
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parsed a non-gzip profile")
	}
}

// TestQuartiles checks against Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	faster := []float64{120, 121, 119, 122, 118, 120, 121, 119, 120, 122}
	for _, tc := range []struct {
		change []float64
		lower  bool
		want   string
	}{
		{faster, false, "better"},
		{faster, true, "worse"},
		{parent, false, "unresolved"},
	} {
		if got := verdict(parent, tc.change, tc.lower); !strings.HasPrefix(got, tc.want) {
			t.Errorf("verdict(lower=%v) = %q, want %s", tc.lower, got, tc.want)
		}
	}
}
