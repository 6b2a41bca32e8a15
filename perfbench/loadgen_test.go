package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stall in one request must show in the latency of the requests that
// fell due behind it: they are timed from their due time, not from when
// the stalled generator got round to sending them.
func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		if calls.Add(1) == 6 { // the sixth request stalls the handler
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	send := func(int) outcome {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			return outcome{}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return outcome{ok: resp.StatusCode == http.StatusOK}
	}
	// One worker, one request due every millisecond.
	recs, sendSpan := openLoop(1000, 20, 1, 0, send, nil)
	for i := 6; i < 20; i++ {
		// Request i fell due at i ms; the stall ran from about 5 ms to
		// 65 ms, so it waited at least until then.
		if min := stall - time.Duration(i)*time.Millisecond; recs[i].lat < min {
			t.Errorf("request %d: latency %v, want at least %v", i, recs[i].lat, min)
		}
		if recs[i].lag < recs[i].lat/2 {
			t.Errorf("request %d: lag %v should carry most of latency %v", i, recs[i].lag, recs[i].lat)
		}
	}
	if recs[5].lat < stall {
		t.Errorf("stalled request latency %v, want at least %v", recs[5].lat, stall)
	}
	w := summarize(recs, 1000, sendSpan)
	if w.failed != 0 {
		t.Fatalf("%d requests failed", w.failed)
	}
	if w.achieved >= 0.98*w.offered {
		t.Errorf("achieved %.0f/s of %.0f/s offered: the stall's backlog should show", w.achieved, w.offered)
	}
	if w.meetsSLO(10 * time.Millisecond) {
		t.Error("a window with a 60 ms stall met a 10 ms p99 limit")
	}
}

func TestSummarizeCountsFailuresAsMissingTheLimit(t *testing.T) {
	recs := make([]record, 100)
	for i := range recs {
		recs[i] = record{sent: true, lat: time.Millisecond, out: outcome{ok: true}}
	}
	recs[7].out.ok = false
	recs[8].out.ok = false
	w := summarize(recs, 100, 990*time.Millisecond)
	if w.failed != 2 || w.attempted != 100 {
		t.Fatalf("failed %d of %d, want 2 of 100", w.failed, w.attempted)
	}
	if w.p99 != ms(requestTimeout) {
		t.Errorf("p99 = %gms, want the failure latency %gms", w.p99, ms(requestTimeout))
	}
	if w.p50 != 1 {
		t.Errorf("p50 = %gms, want 1ms", w.p50)
	}
	if w.achieved != 98 {
		t.Errorf("achieved = %g/s, want 98/s", w.achieved)
	}
}

// A window whose backlog passes maxLag stops sending and fails the SLO.
func TestOpenLoopAbandonsAGrowingBacklog(t *testing.T) {
	send := func(int) outcome {
		time.Sleep(5 * time.Millisecond) // capacity 200/s against 1000/s offered
		return outcome{ok: true}
	}
	recs, sendSpan := openLoop(1000, 2000, 1, 50*time.Millisecond, send, nil)
	w := summarize(recs, 1000, sendSpan)
	if w.abandoned == 0 || w.attempted+w.abandoned != 2000 {
		t.Fatalf("attempted %d, abandoned %d of 2000: want the window abandoned", w.attempted, w.abandoned)
	}
	if w.meetsSLO(time.Second) {
		t.Error("an abandoned window met its SLO")
	}
}

// Latency percentiles are medians over blocks of latencyBlock requests, so
// one stalled block does not set the run's figure.
func TestBlockPercentile(t *testing.T) {
	xs := make([]float64, 5*latencyBlock)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 100; i++ {
		xs[latencyBlock+i] = 500 // one block with a 10% stall
	}
	if got := blockPercentile(xs, 99); got != 1 {
		t.Errorf("block p99 = %g, want 1", got)
	}
	if got := percentile(append([]float64(nil), xs...), 99); got != 500 {
		t.Errorf("plain p99 = %g, want 500", got)
	}
	short := []float64{3, 1, 2}
	if got := blockPercentile(short, 50); got != 2 {
		t.Errorf("p50 of a short window = %g, want 2", got)
	}
	if short[0] != 3 {
		t.Error("blockPercentile reordered its input")
	}
}

func TestCPUPerTxnSlices(t *testing.T) {
	t0 := time.Unix(100, 0)
	samples := []cpuSample{
		{t0, 0},
		{t0.Add(time.Second), 10 * time.Millisecond},
		{t0.Add(2 * time.Second), 30 * time.Millisecond},
		{t0.Add(3 * time.Second), 31 * time.Millisecond}, // nothing completed
	}
	var recs []record
	for i := 0; i < 10; i++ { // 10 in the first second, 5 ok in the second
		recs = append(recs, record{sent: true, end: t0.Add(time.Duration(i+1) * 90 * time.Millisecond), out: outcome{ok: true}})
	}
	for i := 0; i < 5; i++ {
		recs = append(recs, record{sent: true, end: t0.Add(1500 * time.Millisecond), out: outcome{ok: true}})
		recs = append(recs, record{sent: true, end: t0.Add(1500 * time.Millisecond)}) // failed
	}
	got := cpuPerTxn(samples, recs)
	want := []float64{1000, 4000}
	if len(got) != len(want) {
		t.Fatalf("slices %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slice %d: %g µs/txn, want %g", i, got[i], want[i])
		}
	}
}
