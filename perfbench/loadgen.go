package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request. A request that fails or is refused
// is counted at this latency, so it misses any latency limit below it.
const requestTimeout = 10 * time.Second

// outcome is what one send reports back to the generator.
type outcome struct {
	ok       bool    // committed, and its output checked
	synced   bool    // the commit needed a synchronization round
	engineMS float64 // the engine's own latency_ms from the response
}

// record is one scheduled request.
type record struct {
	sent bool          // false when the window was abandoned before it
	lag  time.Duration // actual send minus due time
	lat  time.Duration // open-loop latency: completion minus due time (see openLoop)
	end  time.Time
	out  outcome
}

// openLoop sends n requests at a fixed rate from the given number of
// workers. Request i is due at start + i/rate whatever became of earlier
// requests; a worker takes the next due request as soon as it is free.
// A stall therefore delays later sends, and because their latency is
// measured from their due time that delay is counted (no coordinated
// omission).
// idle, when set, runs on worker w before each request it takes. With
// maxLag > 0 the window is abandoned, leaving the rest unsent, once a
// request would be sent more than maxLag late: the backlog is growing.
// openLoop returns when every sent request has completed, with the time
// from the first due time to the last send.
func openLoop(rate float64, n, workers int, maxLag time.Duration, send func(i int) outcome, idle func(w int)) ([]record, time.Duration) {
	recs := make([]record, n)
	lastSent := make([]time.Time, workers)
	var next atomic.Int64
	var abandoned atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if idle != nil {
					idle(w)
				}
				i := int(next.Add(1) - 1)
				if i >= n || abandoned.Load() {
					return
				}
				due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				if maxLag > 0 && time.Since(due) > maxLag {
					abandoned.Store(true)
					return
				}
				// A request whose worker was busy when it fell due is timed
				// from its due time. One whose worker was idle is timed from
				// when the worker woke: timers fire up to about 1 ms late,
				// and that lateness is the generator's (reported as lag),
				// not a wait the system imposed.
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					from = time.Now()
				}
				sent := time.Now()
				out := send(i)
				end := time.Now()
				recs[i] = record{sent: true, lag: sent.Sub(due), lat: end.Sub(from), end: end, out: out}
				lastSent[w] = sent
			}
		}(w)
	}
	wg.Wait()
	last := start
	for _, t := range lastSent {
		if t.After(last) {
			last = t
		}
	}
	return recs, last.Sub(start)
}

// window summarizes one open-loop window.
type window struct {
	offered, achieved float64 // txn/s
	attempted, failed int     // sent requests, and those that did not succeed
	abandoned         int     // requests left unsent
	p50, p99          float64 // ms (see blockPercentile), failures at requestTimeout
	lagP50, lagP99    float64 // ms
	engineLocal       []float64
	engineSync        []float64
}

// latencyBlock is the block size of blockPercentile: the smallest block
// whose p99 has ten samples beyond it.
const latencyBlock = 1000

// blockPercentile is the median, over consecutive blocks of latencyBlock
// requests, of each block's p-th percentile; with fewer than two blocks'
// worth it is the plain percentile. A moment's stall of the machine then
// moves one block's figure instead of the run's.
func blockPercentile(xs []float64, p float64) float64 {
	k := len(xs) / latencyBlock
	if k < 2 {
		return percentile(append([]float64(nil), xs...), p)
	}
	per := make([]float64, k)
	for b := range per {
		hi := (b + 1) * latencyBlock
		if b == k-1 {
			hi = len(xs)
		}
		per[b] = percentile(append([]float64(nil), xs[b*latencyBlock:hi]...), p)
	}
	return percentile(per, 50)
}

// summarize computes a window's figures; sendSpan is openLoop's time to
// the last send.
func summarize(recs []record, rate float64, sendSpan time.Duration) window {
	w := window{offered: rate}
	lat := make([]float64, 0, len(recs))
	lag := make([]float64, 0, len(recs))
	for _, r := range recs {
		if !r.sent {
			w.abandoned++
			continue
		}
		w.attempted++
		lag = append(lag, ms(r.lag))
		if !r.out.ok {
			w.failed++
			lat = append(lat, ms(requestTimeout))
			continue
		}
		lat = append(lat, ms(r.lat))
		if r.out.synced {
			w.engineSync = append(w.engineSync, r.out.engineMS)
		} else {
			w.engineLocal = append(w.engineLocal, r.out.engineMS)
		}
	}
	// The achieved rate is the successful requests over the time the
	// generator took to send them all. A backlog delays the last sends and
	// lowers it; a slow last response does not.
	span := sendSpan + time.Duration(float64(time.Second)/rate)
	w.achieved = float64(w.attempted-w.failed) / span.Seconds()
	w.p50 = blockPercentile(lat, 50)
	w.p99 = blockPercentile(lat, 99)
	w.lagP50 = percentile(lag, 50)
	w.lagP99 = percentile(lag, 99)
	return w
}

// meetsSLO reports whether a ladder step was sent in full, kept its p99
// within the limit, and achieved at least 98% of the offered rate.
func (w window) meetsSLO(limit time.Duration) bool {
	return w.abandoned == 0 && w.p99 <= ms(limit) && w.achieved >= 0.98*w.offered
}

// cpuPerTxn splits a window at the CPU samples and returns, for every
// slice in which requests succeeded, the CPU time per success in µs.
func cpuPerTxn(samples []cpuSample, recs []record) []float64 {
	var out []float64
	for k := 1; k < len(samples); k++ {
		a, b := samples[k-1], samples[k]
		n := 0
		for _, r := range recs {
			if r.sent && r.out.ok && r.end.After(a.at) && !r.end.After(b.at) {
				n++
			}
		}
		if n > 0 {
			out = append(out, float64(b.cpu-a.cpu)/float64(time.Microsecond)/float64(n))
		}
	}
	return out
}
