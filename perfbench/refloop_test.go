package main

import "testing"

// The reference walk must visit every index before it returns to the
// start, or it would run in a short, cache-resident loop.
func TestRefPermutationIsOneCycle(t *testing.T) {
	j := refWalk[0]
	for steps := 1; j != 0; steps++ {
		if steps >= refWalkLen {
			t.Fatalf("walk from 0 does not return within %d steps", refWalkLen)
		}
		j = refWalk[j]
	}
	steps := 1
	for j = refWalk[0]; j != 0; j = refWalk[j] {
		steps++
	}
	if steps != refWalkLen {
		t.Fatalf("cycle through 0 has %d indices, want %d", steps, refWalkLen)
	}
}

func TestOpsPerRefSecond(t *testing.T) {
	// The same 1000 ops at full host speed (0.5 s, reference loop 50 ms:
	// a reference second of 1 s) and at half speed (1 s, reference loop
	// 100 ms: a reference second of 2 s) both give 2000 ops per
	// reference second.
	w := &window{passes: []passStat{
		{ops: 1000, elapsed: 500e6, ref: 50e6},
		{ops: 1000, elapsed: 1000e6, ref: 100e6},
	}}
	if got, want := w.opsPerRefSecond(), 2000.0; got != want {
		t.Fatalf("opsPerRefSecond = %v, want %v", got, want)
	}
}
