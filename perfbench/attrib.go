package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets a profile sample is attributed to, in report
// order; their shares sum to 100%.
var cpuLayers = []string{
	"sim", "runtime.sched", "runtime.gc", "bytepool", "netem", "tcpsim", "quic",
	"tlsmini", "crypto", "dnsmsg", "h2", "h3", "dox", "cache", "dnsproxy",
	"browser", "measure", "netapi", "other",
}

// moduleLayer maps a repro/internal module to its layer. The campaign
// plumbing (campaign, resolver, stats, geo, pages) counts to measure.
var moduleLayer = map[string]string{
	"sim": "sim", "bytepool": "bytepool", "netem": "netem", "tcpsim": "tcpsim",
	"quic": "quic", "tlsmini": "tlsmini", "dnsmsg": "dnsmsg", "h2": "h2", "h3": "h3",
	"dox": "dox", "cache": "cache", "dnsproxy": "dnsproxy", "browser": "browser",
	"netapi": "netapi", "measure": "measure", "campaign": "measure",
	"resolver": "measure", "stats": "measure", "geo": "measure", "pages": "measure",
}

const repoPrefix = "repro/internal/"

// Runtime functions (without the "runtime." prefix) that allocate or
// collect garbage, and those that park, schedule or hand off goroutines.
var (
	gcFuncs = []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"gc", "bgsweep", "bgscavenge", "scanobject", "scanblock", "scanstack", "scanframeworker",
		"greyobject", "markroot", "sweepone", "wbBuf", "bulkBarrier", "findObject",
		"heapSetType", "nextFreeFast", "deductAssistCredit", "memclrNoHeapPointersChunked",
		"_GC", "(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*gcWork)",
		"(*gcControllerState)", "(*sweepLocked)", "(*pageAlloc)", "(*scavengerState)",
		"(*gcBits)", "typePointers", "heapBits", "markBits", "(*stackScanState)",
	}
	schedFuncs = []string{
		"gopark", "goparkunlock", "park_m", "schedule", "findRunnable", "execute", "gogo",
		"mcall", "goready", "ready", "runqget", "runqput", "runqgrab", "runqsteal",
		"stealWork", "wakep", "startm", "stopm", "mPark", "notesleep", "notewakeup",
		"futex", "futexsleep", "futexwakeup", "chansend", "chanrecv", "selectgo",
		"send", "recv", "closechan", "goexit0", "goexit1", "casgstatus", "resetspinning",
		"netpoll", "usleep", "osyield", "procyield", "semacquire", "semrelease",
		"handoffp", "gosched_m", "goschedImpl", "Gosched", "newproc", "newproc1",
		"gfget", "gfput", "checkTimers", "injectglist", "acquirep", "releasep",
	}
)

// attribute assigns one stack, leaf first, to a layer. The frames from
// the leaf down to the innermost repro/internal frame are the sample's
// leaf segment: if it passes through malloc or GC the sample is
// runtime.gc, else if it parks, schedules, waits on a futex or a
// channel it is runtime.sched, else if it is in crypto/* it is crypto;
// any other sample counts to the module of the innermost
// repro/internal frame, so runtime helpers such as map access and
// memmove are charged to the layer that called them.
func attribute(stack []string) string {
	seg := stack
	owner := ""
	for i, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			seg = stack[:i]
			owner = rest[:strings.IndexAny(rest+".", "./")]
			break
		}
	}
	switch {
	case anyRuntime(seg, gcFuncs):
		return "runtime.gc"
	case anyRuntime(seg, schedFuncs):
		return "runtime.sched"
	}
	for _, fn := range seg {
		if strings.HasPrefix(fn, "crypto/") {
			return "crypto"
		}
	}
	if layer, ok := moduleLayer[owner]; ok {
		return layer
	}
	return "other"
}

// anyRuntime reports whether a frame of seg is a runtime function whose
// name is one of names or begins with one followed by a non-letter
// (chanrecv1, gcDrain, (*mheap).alloc).
func anyRuntime(seg []string, names []string) bool {
	for _, fn := range seg {
		rest, ok := strings.CutPrefix(fn, "runtime.")
		if !ok {
			continue
		}
		for _, n := range names {
			if !strings.HasPrefix(rest, n) {
				continue
			}
			if len(rest) == len(n) || n == "gc" || !isLower(rest[len(n)]) {
				return true
			}
		}
	}
	return false
}

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }

// cpuShares attributes a gzipped pprof CPU profile to layers and
// returns each layer's share of CPU time in percent and the number of
// samples.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	prof, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	var samples int
	for _, s := range prof.samples {
		var stack []string
		for _, id := range s.locations {
			stack = append(stack, prof.locations[id]...)
		}
		byLayer[attribute(stack)] += s.value
		total += s.value
		samples++
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile has no samples")
	}
	shares := map[string]float64{}
	for _, layer := range cpuLayers {
		shares[layer] = 100 * float64(byLayer[layer]) / float64(total)
	}
	return shares, samples, nil
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	samples []profSample
	// locations maps a location id to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64
}

// parseProfile decodes a gzipped profile.proto message with a minimal
// protobuf reader: sample types (1), samples (2), locations (4),
// functions (5) and the string table (6). The sample value used is the
// one whose type is "cpu", else the first.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		sampleTypes [][]byte
		rawSamples  [][]byte
		rawLocs     [][]byte
		funcs       = map[uint64]int64{} // function id -> name string index
		strs        []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			rawSamples = append(rawSamples, b)
		case 4:
			rawLocs = append(rawLocs, b)
		case 5:
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valueIdx := 0
	for i, st := range sampleTypes {
		err := walkFields(st, func(f int, v uint64, _ []byte) error {
			if f == 1 && str(int64(v)) == "cpu" {
				valueIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]string{}}
	for _, b := range rawLocs {
		var id uint64
		var names []string
		err := walkFields(b, func(f int, v uint64, line []byte) error {
			switch f {
			case 1:
				id = v
			case 4:
				return walkFields(line, func(f int, v uint64, _ []byte) error {
					if f == 1 {
						names = append(names, str(funcs[v]))
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.locations[id] = names
	}
	for _, b := range rawSamples {
		var s profSample
		var values []int64
		err := walkFields(b, func(f int, v uint64, packed []byte) error {
			return repeatedVarints(packed, v, func(x uint64) {
				switch f {
				case 1:
					s.locations = append(s.locations, x)
				case 2:
					values = append(values, int64(x))
				}
			})
		})
		if err != nil {
			return nil, err
		}
		if valueIdx < len(values) {
			s.value = values[valueIdx]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload (nil
// otherwise).
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints yields the elements of a repeated varint field, which
// arrives either packed (b non-nil) or as one element (v).
func repeatedVarints(b []byte, v uint64, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
