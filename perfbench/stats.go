package main

import (
	"math"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// tailLadder lists the percentiles a tail report may use, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// supportedTail returns the highest percentile of tailLadder, capped at
// want, that has at least ten samples beyond it among n samples, or 0
// when even the median lacks them. A percentile without ten samples
// beyond it is set by a handful of outliers and does not repeat.
func supportedTail(n int, want float64) float64 {
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		// The tolerance absorbs the rounding of 100-q in binary.
		if float64(n)*(100-q)/100 >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// percentile returns the nearest-rank q-th percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail reports the q-th percentile of values when the sample supports
// it, else the highest supported percentile below q, together with the
// percentile actually used (0 when no percentile is supported; the value
// is then the maximum).
func tail(values []float64, q float64) (value, used float64) {
	s := sortedCopy(values)
	if len(s) == 0 {
		return 0, 0
	}
	used = supportedTail(len(s), q)
	if used == 0 {
		return s[len(s)-1], 0
	}
	return percentile(s, used), used
}

func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// wireCostNs derives the per-event cost of the wire layer: the time per
// event over the daemon's socket minus the time per event of the same
// stream, model and shard count driven in-process.
func wireCostNs(wireEventsPerS, engineEventsPerS float64) float64 {
	if wireEventsPerS <= 0 || engineEventsPerS <= 0 {
		return 0
	}
	return 1e9/wireEventsPerS - 1e9/engineEventsPerS
}

// dueTable maps each open-loop event, by its session and its 0-based
// position within the session, to its index in the phase's schedule, so
// an alarm's latency runs from the time its event was due rather than
// from the (possibly late) send. Keys and values hold no pointers, so
// the garbage collector does not scan the table.
type dueTable map[uint64]int32

// dueKey packs (session, position); session IDs are a letter and a
// counter (sessionID).
func dueKey(session string, position int) (uint64, bool) {
	n, err := strconv.Atoi(session[min(1, len(session)):])
	if err != nil || n < 0 || position < 0 || position >= 1<<24 {
		return 0, false
	}
	return packKey(n, position), true
}

// packKey packs a session counter and a position.
func packKey(session, position int) uint64 { return uint64(session)<<24 | uint64(position) }

func (d dueTable) add(session string, position, i int) {
	if k, ok := dueKey(session, position); ok {
		d[k] = int32(i)
	}
}

// schedule is an open-loop send plan at rate events per second: event i
// is due at i/rate after the phase start, whatever happened to earlier
// sends. With a tick, the events that fall in a tick are all due at its
// start, the way a shipper forwards what arrived since its last flush:
// event i falls in tick floor(i/(rate*tick)).
type schedule struct {
	rate float64 // events per second
	tick time.Duration
}

func (s schedule) due(i int) time.Duration {
	if s.tick == 0 {
		return time.Duration(float64(i) / s.rate * 1e9)
	}
	perTick := s.rate * s.tick.Seconds()
	// The tolerance absorbs the rounding of perTick in binary.
	return time.Duration(math.Floor(float64(i)/perTick+1e-9)) * s.tick
}

// sleep blocks the calling thread for d. time.Sleep rounds waits under a
// millisecond up to the network poller's millisecond tick, which would
// put an open-loop sender up to a millisecond behind its schedule, about
// as long as the alarm latency it times; nanosleep wakes within tens of
// microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
