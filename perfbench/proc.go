package main

import (
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSample is the process CPU time at an instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// cpuSampler samples the process CPU time periodically until stopped.
type cpuSampler struct {
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
}

func startCPUSampler(every time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.samples = append(s.samples, cpuSample{time.Now(), cpuTime()})
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.samples = append(s.samples, cpuSample{time.Now(), cpuTime()})
			}
		}
	}()
	return s
}

// finish stops the sampler, takes a last sample and returns them all.
func (s *cpuSampler) finish() []cpuSample {
	close(s.stop)
	<-s.done
	return append(s.samples, cpuSample{time.Now(), cpuTime()})
}

// stealSample holds the machine's CPU time counters from /proc/stat: the
// total and the part stolen by the hypervisor for other guests.
type stealSample struct{ total, steal uint64 }

// readSteal reads the aggregate cpu line of /proc/stat; it returns zeros
// where that file is unavailable.
func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealSample{}
		}
		if i < 8 { // user .. steal; guest time is already in user
			s.total += n
		}
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// pctSince is the share of CPU time stolen between a and s, in percent:
// how much the machine's other tenants took from this run.
func (s stealSample) pctSince(a stealSample) float64 {
	return 100 * ratio(float64(s.steal-a.steal), float64(s.total-a.total))
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goSample is a snapshot of the Go runtime's counters.
type goSample struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
	sched              *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	ss := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	g := goSample{}
	if ss[0].Value.Kind() == metrics.KindUint64 {
		g.allocs = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = ss[3].Value.Float64()
	}
	if ss[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[4].Value.Float64Histogram()
		g.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return g
}

// sub returns the change from snapshot a to g.
func (g goSample) sub(a goSample) goSample {
	d := goSample{
		allocs: g.allocs - a.allocs, allocBytes: g.allocBytes - a.allocBytes,
		gcCPU: g.gcCPU - a.gcCPU, totalCPU: g.totalCPU - a.totalCPU,
	}
	if g.sched != nil && a.sched != nil && len(g.sched.Counts) == len(a.sched.Counts) {
		d.sched = &metrics.Float64Histogram{Counts: make([]uint64, len(g.sched.Counts)), Buckets: g.sched.Buckets}
		for i := range d.sched.Counts {
			d.sched.Counts[i] = g.sched.Counts[i] - a.sched.Counts[i]
		}
	}
	return d
}

// add accumulates a change d (from sub) into g.
func (g *goSample) add(d goSample) {
	g.allocs += d.allocs
	g.allocBytes += d.allocBytes
	g.gcCPU += d.gcCPU
	g.totalCPU += d.totalCPU
	if d.sched == nil {
		return
	}
	if g.sched == nil {
		g.sched = &metrics.Float64Histogram{Counts: make([]uint64, len(d.sched.Counts)), Buckets: d.sched.Buckets}
	}
	for i := range d.sched.Counts {
		g.sched.Counts[i] += d.sched.Counts[i]
	}
}

// goLayers reports the Go runtime's figures for a change d (from sub)
// over which txns transactions committed.
func goLayers(d goSample, txns int64) map[string]float64 {
	return map[string]float64{
		"go.allocs_per_txn":       ratio(float64(d.allocs), float64(txns)),
		"go.alloc_bytes_per_txn":  ratio(float64(d.allocBytes), float64(txns)),
		"go.gc_cpu_pct":           100 * ratio(d.gcCPU, d.totalCPU),
		"go.sched_latency_ms_p99": 1000 * histQuantile(d.sched, 0.99),
	}
}

// histQuantile returns the upper bound of the bucket holding the q-th
// quantile of h's samples (the lower bound for the unbounded last bucket).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= q*float64(total) {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}
