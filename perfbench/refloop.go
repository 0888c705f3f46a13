package main

import (
	"crypto/sha256"
	"time"
)

// The reference loop gauges the host's speed at the moment of a pass. On
// a shared host the same pass runs up to a third slower or faster from
// one minute to the next, as neighbours load the caches and the memory
// bus; the loop is slowed by the same neighbours, so dividing a pass's
// rate by the loop's speed taken around it leaves the program's own
// cost. The loop uses only the standard library and allocates nothing,
// so no change to the repository's code or heap moves it: a dependent
// walk through a 4 MiB random permutation (cache and memory latency,
// like the simulator's pointer-heavy state) interleaved with SHA-256 of
// DNS-sized buffers (the handshakes' hashing).
//
// A reference second is refLoopsPerRefSecond loops: about one host
// second on a 2.0 GHz Intel Xeon with quiet neighbours.
const refLoopsPerRefSecond = 20

const (
	refWalkLen = 1 << 20
	refRounds  = 40000
	refHops    = 8
)

var (
	refWalk = refPermutation()
	refBuf  [256]byte
	refSum  [sha256.Size]byte
)

// refPermutation is a fixed random permutation of refWalkLen indices
// made of one cycle (Sattolo's algorithm with a fixed LCG), so the walk
// never settles into a short, cache-resident loop.
func refPermutation() []int32 {
	a := make([]int32, refWalkLen)
	for i := range a {
		a[i] = int32(i)
	}
	r := uint32(1)
	for i := len(a) - 1; i > 0; i-- {
		r = r*1664525 + 1013904223
		j := int(r % uint32(i))
		a[i], a[j] = a[j], a[i]
	}
	return a
}

// timeRefLoop runs the reference loop once and returns its host time.
func timeRefLoop() time.Duration {
	t0 := time.Now()
	j := int32(0)
	for i := 0; i < refRounds; i++ {
		for k := 0; k < refHops; k++ {
			j = refWalk[j]
		}
		refBuf[1] = byte(j)
		if i%2 == 0 {
			refSum = sha256.Sum256(refBuf[:64+i%192])
		}
	}
	return time.Since(t0)
}
