package quic

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// mapRecv is the received-packet bookkeeping recvRanges replaced: a set
// of packet numbers plus the largest, with the ACK's first range found
// by walking down from the largest.
type mapRecv struct {
	recvd   map[uint64]bool
	largest uint64
	any     bool
}

func (m *mapRecv) add(pn uint64) {
	m.recvd[pn] = true
	if !m.any || pn > m.largest {
		m.largest = pn
		m.any = true
	}
}

func (m *mapRecv) firstRange() uint64 {
	run := uint64(0)
	for m.recvd[m.largest-run-1] && m.largest >= run+1 {
		run++
	}
	return run
}

// arrivals returns n packet numbers as a receiver sees them: mostly
// ascending, with losses (gaps), reordering within a window, and
// duplicates.
func arrivals(r *rand.Rand, n int) []uint64 {
	var out []uint64
	var next uint64
	for len(out) < n {
		switch x := r.Intn(20); {
		case x == 0:
			next += 1 + uint64(r.Intn(4)) // lost packets
		case x == 1 && len(out) > 0:
			out = append(out, out[r.Intn(len(out))]) // duplicate
			continue
		case x == 2:
			// A reordered burst: the window arrives shuffled.
			w := 2 + r.Intn(6)
			burst := make([]uint64, w)
			for i := range burst {
				burst[i] = next + uint64(i)
			}
			r.Shuffle(w, func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
			out = append(out, burst...)
			next += uint64(w)
			continue
		case x == 3 && next > 8:
			// A straggler from well below the top (fills an old gap, or
			// duplicates).
			out = append(out, next-1-uint64(r.Intn(8)))
			continue
		}
		out = append(out, next)
		next++
	}
	return out
}

// TestRecvRangesMatchMapWalk feeds random arrival sequences into the
// range list and into the map walk it replaced: after every packet the
// largest packet number and the ACK's first range must agree, and the
// ranges must stay ascending, disjoint and non-adjacent while holding
// exactly the received set.
func TestRecvRangesMatchMapWalk(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var rr recvRanges
		ref := mapRecv{recvd: map[uint64]bool{}}
		for i, pn := range arrivals(r, 300) {
			rr.add(pn)
			ref.add(pn)
			top, ok := rr.top()
			if !ok || top.hi != ref.largest || top.hi-top.lo != ref.firstRange() {
				t.Fatalf("seed %d packet %d (pn %d): top %+v, want largest %d firstRange %d",
					seed, i, pn, top, ref.largest, ref.firstRange())
			}
		}
		held := 0
		for i, g := range rr {
			if g.lo > g.hi || (i > 0 && rr[i-1].hi+1 >= g.lo) {
				t.Fatalf("seed %d: ranges not ascending, disjoint and non-adjacent: %v", seed, rr)
			}
			for pn := g.lo; pn <= g.hi; pn++ {
				if !ref.recvd[pn] {
					t.Fatalf("seed %d: range %+v holds unreceived %d", seed, g, pn)
				}
			}
			held += int(g.hi - g.lo + 1)
		}
		if held != len(ref.recvd) {
			t.Fatalf("seed %d: ranges hold %d packet numbers, received %d", seed, held, len(ref.recvd))
		}
	}
	if _, ok := (recvRanges{}).top(); ok {
		t.Error("empty range list reports a top range")
	}
}

// fullWalk is the ACK processing ackRange replaced: outstanding packets
// in a map by packet number, and an ACK range [low, high] probes every
// number in it, deleting what is outstanding and returning the packet
// numbered high.
func fullWalk(sent map[uint64]sentPacket, low, high uint64) (largest sentPacket, ok bool) {
	for pn := low; pn <= high; pn++ {
		if ent, found := sent[pn]; found {
			if pn == high {
				largest, ok = ent, true
			}
			delete(sent, pn)
		}
	}
	return largest, ok
}

// TestAckRangeMatchesFullWalk drives a sender through random sends,
// retransmission sweeps, and ACKs shaped like a peer's (first range
// ending at its largest received, restarting after losses, delayed
// duplicate ACKs, occasional bogus ranges past anything sent). ackRange
// must remove exactly the packets the full walk deletes, keep the rest
// in packet-number order, and yield the same RTT samples.
func TestAckRangeMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		sp := newSpace()
		ref := map[uint64]sentPacket{}
		var now time.Duration
		var peer recvRanges // what the peer received, for realistic ACKs
		var acks []pnRange  // every ACK range sent so far, for replays
		var got, want []time.Duration
		for step := 0; step < 400; step++ {
			now += time.Millisecond
			switch x := r.Intn(10); {
			case x < 4:
				ent := sentPacket{pn: sp.nextPN, timeSent: now, ackEliciting: r.Intn(4) != 0}
				sp.nextPN++
				sp.sent = append(sp.sent, ent)
				ref[ent.pn] = ent
				// Some packets are lost on the way; some arrive late.
				switch y := r.Intn(30); {
				case y == 0:
				case y < 4 && ent.pn > 0:
					peer.add(ent.pn)
					peer.add(ent.pn - 1)
				default:
					peer.add(ent.pn)
				}
			case x == 4 && r.Intn(8) == 0:
				// A PTO sweep removes everything outstanding.
				sp.sent = sp.sent[:0]
				clear(ref)
			default:
				var a pnRange
				switch top, ok := peer.top(); {
				case x == 5 && len(acks) > 0:
					a = acks[r.Intn(len(acks))] // delayed duplicate ACK
				case x == 6 && r.Intn(4) == 0:
					lo := uint64(r.Intn(int(sp.nextPN) + 8))
					a = pnRange{lo, lo + uint64(r.Intn(50))} // bogus
				case ok:
					a = top
				default:
					continue
				}
				acks = append(acks, a)
				ent, ok := sp.ackRange(a.lo, a.hi)
				if ok && ent.ackEliciting {
					got = append(got, now-ent.timeSent)
				}
				ent, ok = fullWalk(ref, a.lo, a.hi)
				if ok && ent.ackEliciting {
					want = append(want, now-ent.timeSent)
				}
			}
			if len(sp.sent) != len(ref) {
				t.Fatalf("seed %d step %d: %d outstanding, full walk leaves %d", seed, step, len(sp.sent), len(ref))
			}
			for i, ent := range sp.sent {
				if i > 0 && sp.sent[i-1].pn >= ent.pn {
					t.Fatalf("seed %d step %d: outstanding packets out of order at %d", seed, step, i)
				}
				if w, ok := ref[ent.pn]; !ok || w.timeSent != ent.timeSent {
					t.Fatalf("seed %d step %d: pn %d outstanding, full walk deleted it", seed, step, ent.pn)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: RTT samples %v, full walk %v", seed, got, want)
		}
	}
}
