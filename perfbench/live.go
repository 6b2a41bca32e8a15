package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/homeo"
	"repro/homeo/client"
	"repro/homeo/httpapi"
	"repro/internal/micro"
)

// liveSpec configures a workload served by the live runtime over /v1 on
// loopback, in the benchmark's own process.
type liveSpec struct {
	Name string `json:"name"`
	// Base is the base workload ("micro"). BaseShare of the submissions
	// are its draws (SubmitMix); the rest invoke the registered classes.
	Base      string  `json:"base"`
	Items     int     `json:"items"`
	Refill    int64   `json:"refill"`
	BaseShare float64 `json:"base_share"`
	Sites     int     `json:"sites"`
	// The modeled costs. 0 selects the program's defaults (2 ms exec,
	// 50 ms RTT), so 1 ns is the lowest the public options allow.
	ExecTime time.Duration `json:"exec_time_ns"`
	RTT      time.Duration `json:"rtt_ns"`
	WAL      bool          `json:"wal"`
	// Rate is the nominal open-loop rate (txn/s); Ladder the higher rates
	// probed for the highest one meeting SLO (p99 latency limit).
	Rate   float64       `json:"rate_txn_s"`
	Ladder []float64     `json:"ladder_txn_s"`
	SLO    time.Duration `json:"slo_p99_ns"`
	Warmup time.Duration `json:"warmup_ns"`
	// Setups is how many times a run boots the cluster; setup_s is their
	// median and the last one carries the load.
	Setups     int           `json:"setups"`
	StatsEvery time.Duration `json:"stats_every_ns"`
}

var httpMix = liveSpec{
	Name: "http-mix", Base: "micro", Items: 10, Refill: 100, BaseShare: 5.0 / 6, Sites: 2,
	ExecTime: time.Nanosecond, RTT: time.Nanosecond, WAL: true,
	Rate: 120, Ladder: []float64{180, 240}, SLO: 250 * time.Millisecond,
	Warmup: 4 * time.Second, Setups: 9, StatsEvery: 250 * time.Millisecond,
}

// nominalShare is the part of a live run's measured time spent at the
// nominal rate; the ladder gets the rest.
const nominalShare = 0.7

// loadWorkers is the number of load goroutines and connections: one per
// CPU, at most two.
func loadWorkers() int { return min(2, runtime.NumCPU()) }

// liveCluster is one booted cluster with its /v1 server and client.
type liveCluster struct {
	c         *homeo.Cluster
	srv       *http.Server
	served    chan error
	transport *http.Transport
	cl        *client.Client
	walDir    string
}

// setupTimes are the timed calls of one boot.
type setupTimes struct {
	total, create, batch, recover time.Duration
	singles                       []time.Duration
}

// setupLayers collects the timed setup calls of a run's boots.
type setupLayers struct{ total, create, batch, recover, singles []float64 }

func (l *setupLayers) add(st setupTimes) {
	l.total = append(l.total, st.total.Seconds())
	l.create = append(l.create, ms(st.create))
	l.batch = append(l.batch, ms(st.batch))
	l.recover = append(l.recover, ms(st.recover))
	l.singles = append(l.singles, msAll(st.singles)...)
}

// report sets setup_s and the per-call setup figures.
func (l *setupLayers) report(res *result) {
	res.e2e("setup_s", percentile(l.total, 50), len(l.total))
	reg := percentile(l.singles, 50)
	res.layer["setup.register_ms_p50"] = reg
	res.info["register_ms_p50"] = fmt.Sprintf("%.4g ms samples=%d", reg, len(l.singles))
	res.layer["setup.new_ms_p50"] = percentile(l.create, 50)
	res.layer["setup.register_batch_ms_p50"] = percentile(l.batch, 50)
	res.layer["setup.recover_ms_p50"] = percentile(l.recover, 50)
}

func (s liveSpec) boot(rc runConfig, cs classSet, rep int, tr *tracer) (*liveCluster, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	opts := homeo.Options{
		Runtime: homeo.RuntimeLive, Sites: s.Sites, RTT: s.RTT, LocalExecTime: s.ExecTime,
		Seed: rc.seed, EnableLog: true,
	}
	w, err := micro.New(micro.Config{Items: s.Items, Refill: s.Refill, NSites: s.Sites})
	if err != nil {
		return nil, st, err
	}
	opts.Workload = w
	lc := &liveCluster{served: make(chan error, 1)}
	if s.WAL {
		lc.walDir = filepath.Join(rc.out, fmt.Sprintf("wal-%s-%d", s.Name, rep))
		if err := os.RemoveAll(lc.walDir); err != nil {
			return nil, st, err
		}
		if err := os.MkdirAll(lc.walDir, 0o755); err != nil {
			return nil, st, err
		}
		opts.WAL = homeo.WALOptions{Dir: lc.walDir}
	}
	c, err := homeo.New(opts)
	if err != nil {
		return nil, st, err
	}
	st.create = time.Since(t0)
	lc.c = c
	var handler http.Handler = httpapi.NewHandler(c)
	if tr != nil {
		handler = tr.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, st, err
	}
	lc.srv = &http.Server{Handler: handler}
	go func() { lc.served <- lc.srv.Serve(ln) }()
	workers := loadWorkers()
	lc.transport = &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	var rtrip http.RoundTripper = lc.transport
	if tr != nil {
		rtrip = spanTransport{base: lc.transport}
	}
	lc.cl = client.New("http://"+ln.Addr().String(), client.Options{
		HTTPClient:  &http.Client{Transport: rtrip, Timeout: requestTimeout},
		MaxAttempts: 1, // a refused request is a failure, not a retry
		Seed:        rc.seed,
	})
	ctx := context.Background()
	t := time.Now()
	if _, err := lc.cl.RegisterClassBatch(ctx, cs.batch); err != nil {
		return lc, st, errors.Join(fmt.Errorf("register batch: %w", err), lc.stop())
	}
	st.batch = time.Since(t)
	for _, one := range cs.singles {
		t := time.Now()
		if _, err := lc.cl.RegisterClass(ctx, one); err != nil {
			return lc, st, errors.Join(fmt.Errorf("register %s: %w", one.Name, err), lc.stop())
		}
		st.singles = append(st.singles, time.Since(t))
	}
	t = time.Now()
	if _, err := c.Recover(); err != nil {
		return lc, st, errors.Join(fmt.Errorf("recover: %w", err), lc.stop())
	}
	st.recover = time.Since(t)
	st.total = time.Since(t0)
	return lc, st, nil
}

// stop shuts the server down (waiting for in-flight requests), then
// closes the cluster.
func (lc *liveCluster) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := lc.srv.Shutdown(ctx)
	if serr := <-lc.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	lc.transport.CloseIdleConnections()
	lc.c.Close()
	return err
}

// walBytes sums the sizes of the WAL files.
func (lc *liveCluster) walBytes() (int64, error) {
	if lc.walDir == "" {
		return 0, nil
	}
	ents, err := os.ReadDir(lc.walDir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// engineCounters reads protocol counters that homeo.Stats does not carry,
// under the runtime's scheduler lock.
type engineCounters struct {
	solverMS    float64 // modeled plus real treaty computation per synced commit
	busyRetries int64
	samplesHeld int
}

func readEngine(c *homeo.Cluster) engineCounters {
	sys := c.System()
	var ec engineCounters
	read := func() {
		_, solver, _ := sys.Col.ViolationBreakdown.Avg()
		ec.solverMS = float64(solver) / float64(time.Millisecond)
		ec.busyRetries = sys.BusyRetries
		ec.samplesHeld = sys.Col.Latency.N() + sys.Col.NegotiationLatency.N()
	}
	if l, ok := sys.E.(interface{ Locked(func()) }); ok {
		l.Locked(read)
	} else {
		read()
	}
	return ec
}

// acks counts acknowledged commits by class and arguments.
type acks struct {
	mu sync.Mutex
	m  map[string]int
	n  int
}

func ackKey(class string, args []int64) string { return fmt.Sprint(class, args) }

func (a *acks) add(class string, args []int64) {
	a.mu.Lock()
	a.m[ackKey(class, args)]++
	a.n++
	a.mu.Unlock()
}

func (s liveSpec) run(rc runConfig, traced bool) (*result, error) {
	res := newResult()
	cs := genClasses(rc.seed)
	workers := loadWorkers()

	var setup setupLayers
	var lc *liveCluster
	var tr *tracer
	for rep := 0; rep < s.Setups; rep++ {
		last := rep == s.Setups-1
		if traced && last {
			tr = newTracer()
		}
		var st setupTimes
		var err error
		runtime.GC() // the previous boot's garbage is not this boot's cost
		lc, st, err = s.boot(rc, cs, rep, tr)
		if err != nil {
			return nil, err
		}
		setup.add(st)
		if !last {
			if err := lc.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(lc.walDir); err != nil {
				return nil, err
			}
		}
	}
	boot := lc.c.Stats()
	res.layer["cache.analysis_hit_ratio"] = ratio(float64(boot.AnalysisCacheHits),
		float64(boot.AnalysisCacheHits+boot.AnalysisCacheMisses))

	nominalDur := time.Duration(float64(rc.seconds) * nominalShare * float64(time.Second))
	stepDur := time.Duration(float64(rc.seconds) * (1 - nominalShare) / float64(len(s.Ladder)) * float64(time.Second))
	count := func(rate float64, d time.Duration) int { return int(rate * d.Seconds()) }
	total := count(s.Rate, s.Warmup) + count(s.Rate, nominalDur)
	for _, r := range s.Ladder {
		total += count(r, stepDur)
	}
	reqs := genRequests(rc.seed, total, cs, s.BaseShare)

	acked := &acks{m: map[string]int{}}
	var wrong atomic.Int64
	var statsReads []float64
	var statsErrs int
	nextPoll := time.Now()
	polling := false
	poll := func(w int) {
		if w != 0 || !polling || time.Now().Before(nextPoll) {
			return
		}
		t := time.Now()
		if _, err := lc.cl.Stats(context.Background()); err != nil {
			statsErrs++
		} else {
			statsReads = append(statsReads, ms(time.Since(t)))
		}
		nextPoll = time.Now().Add(s.StatsEvery)
	}
	// traceIDs is set while the nominal window runs traced.
	var traceIDs bool
	offset := 0
	window := func(rate float64, n int, maxLag time.Duration) ([]record, time.Duration) {
		base := offset
		offset += n
		send := func(i int) outcome {
			i += base
			ctx := context.Background()
			if traceIDs {
				ctx = withSpanID(ctx, int64(i))
			}
			t := time.Now()
			r, err := lc.cl.Submit(ctx, reqs[i].txn)
			if traceIDs {
				tr.addClient(int64(i), span{Start: t, End: time.Now()}, r.LatencyMS)
			}
			if err != nil || r.Error != nil || !r.Committed {
				return outcome{}
			}
			acked.add(r.Class, r.Args)
			if e := reqs[i].expect; e != nil && (len(r.Log) != 1 || r.Log[0] != *e) {
				wrong.Add(1)
				return outcome{}
			}
			return outcome{ok: true, synced: r.Synced, engineMS: r.LatencyMS}
		}
		return openLoop(rate, n, workers, maxLag, send, poll)
	}
	var all []record
	add := func(recs []record) { all = append(all, recs...) }

	warm, _ := window(s.Rate, count(s.Rate, s.Warmup), 0)
	add(warm)

	// The nominal window: every end-to-end latency and CPU figure.
	runtime.GC()
	lc.c.BeginMeasure()
	before := lc.c.Stats()
	eng0 := readEngine(lc.c)
	var prof bytes.Buffer
	if traced {
		traceIDs = true
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	polling = true
	nextPoll = time.Now()
	g0, sampler, steal0 := readGo(), startCPUSampler(time.Second), readSteal()
	recs, sendSpan := window(s.Rate, count(s.Rate, nominalDur), 0)
	cpuSamples, g1, steal1 := sampler.finish(), readGo(), readSteal()
	polling = false
	if traced {
		pprof.StopCPUProfile()
		traceIDs = false
	}
	after := lc.c.Stats()
	eng1 := readEngine(lc.c)
	add(recs)
	nom := summarize(recs, s.Rate, sendSpan)
	committed := int64(nom.attempted - nom.failed)

	// The ladder: the highest rate meeting SLO. A step whose backlog
	// passes a second has failed; the rest of it is not sent.
	maxRate := 0.0
	for _, rate := range s.Ladder {
		recs, sendSpan := window(rate, count(rate, stepDur), time.Second)
		add(recs)
		w := summarize(recs, rate, sendSpan)
		res.info[fmt.Sprintf("ladder_%g", rate)] = fmt.Sprintf("p99=%.3fms achieved=%.1f/s abandoned=%d",
			w.p99, w.achieved, w.abandoned)
		if w.meetsSLO(s.SLO) {
			maxRate = w.achieved
		}
	}
	held := readEngine(lc.c).samplesHeld

	// Gate: load has stopped; drain the server, close the cluster, then
	// check replay equivalence, the commit log and the process count.
	res.checkErr("shutdown", lc.stop())
	res.checkErr("replay_equivalence", lc.c.CheckReplayEquivalence())
	live := lc.c.System().E.Live()
	res.check("no_live_processes", live == 0, fmt.Sprintf("%d live", live))
	logged := map[string]int{}
	for _, e := range lc.c.WireLog() {
		logged[ackKey(e.Class, e.Args)]++
	}
	res.check("acked_equals_log", sameCounts(acked.m, logged),
		fmt.Sprintf("%d acknowledged, %d logged", acked.n, lc.c.Committed()))
	res.check("outputs", wrong.Load() == 0, fmt.Sprintf("%d wrong read results", wrong.Load()))
	res.check("stats_reads", statsErrs == 0, fmt.Sprintf("%d failed", statsErrs))
	walBytes, err := lc.walBytes()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(lc.walDir); err != nil {
		return nil, err
	}

	for _, r := range all {
		if r.sent {
			res.attempted++
			if !r.out.ok {
				res.failed++
			}
		}
	}
	res.info["error_pct"] = 100 * ratio(float64(res.failed), float64(res.attempted))
	res.info["sync_ratio_pct"] = after.SyncRatioPct
	res.info["host_steal_pct"] = steal1.pctSince(steal0)

	res.e2e("latency_p50_ms", nom.p50, nom.attempted)
	res.e2e("latency_p99_ms", nom.p99, nom.attempted)
	res.e2e("max_rate_at_slo_txn_s", maxRate, len(s.Ladder))
	cpuSlices := cpuPerTxn(cpuSamples, recs)
	res.e2e("cpu_us_per_txn", percentile(cpuSlices, 50), len(cpuSlices))
	setup.report(res)
	res.e2e("stats_read_ms_p90", percentile(statsReads, 90), len(statsReads))
	res.e2e("max_rss_mb", maxRSSMB(), 1)

	if !traced {
		return res, nil
	}
	for k, v := range tr.layers() {
		res.layer[k] = v
	}
	if err := tr.dump(filepath.Join(rc.out, fmt.Sprintf("spans-%s-%d.jsonl", s.Name, rc.seed))); err != nil {
		return nil, err
	}
	var cc cpuCounts
	if err := cc.addProfile(prof.Bytes()); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(rc.out, fmt.Sprintf("cpu-%s-%d.pprof", s.Name, rc.seed)), prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	for k, v := range cc.shares() {
		res.layer[k] = v
	}
	for k, v := range goLayers(g1.sub(g0), committed) {
		res.layer[k] = v
	}
	windowCounters(res, before, after, eng0, eng1)
	res.layer["engine.local_ms_p50"] = percentile(nom.engineLocal, 50)
	res.layer["engine.local_ms_p99"] = percentile(nom.engineLocal, 99)
	res.layer["engine.sync_ms_p50"] = percentile(nom.engineSync, 50)
	res.layer["engine.sync_ms_p99"] = percentile(nom.engineSync, 99)
	res.layer["wal.bytes_per_txn"] = ratio(float64(walBytes), float64(lc.c.Committed()))
	res.layer["stats.samples_held"] = float64(held)
	res.layer["gen.offered_txn_s"] = nom.offered
	res.layer["gen.achieved_txn_s"] = nom.achieved
	res.layer["gen.lag_ms_p50"] = nom.lagP50
	res.layer["gen.lag_ms_p99"] = nom.lagP99
	return res, nil
}

// windowCounters sets the sync, store and solver figures from two
// snapshots taken around a measured window.
func windowCounters(res *result, before, after homeo.Stats, eng0, eng1 engineCounters) {
	res.layer["sync.rounds"] = float64(after.Negotiations)
	res.layer["sync.rounds_per_1k_txn"] = 1000 * ratio(float64(after.Negotiations), float64(after.Committed))
	res.layer["sync.comm_ms_p50"] = ms(after.NegotiationP50)
	res.layer["sync.comm_ms_p99"] = ms(after.NegotiationP99)
	res.layer["sync.solver_ms_avg"] = eng1.solverMS
	res.layer["sync.busy_retries"] = float64(eng1.busyRetries - eng0.busyRetries)
	res.layer["sync.co_winners"] = float64(after.CoWinnerCommits)
	res.layer["sync.treaty_gen_failures"] = float64(after.TreatyGenFailures)
	commits := after.Store.Commits - before.Store.Commits
	aborts := after.Store.Aborts - before.Store.Aborts
	res.layer["store.commits"] = float64(commits)
	res.layer["store.aborts"] = float64(aborts)
	res.layer["store.abort_ratio"] = ratio(float64(aborts), float64(commits+aborts))
	res.layer["store.conflict_aborts"] = float64(after.ConflictAborts)
	res.layer["store.deadlocks"] = float64(after.Store.Deadlocks - before.Store.Deadlocks)
	res.layer["store.timeouts"] = float64(after.Store.Timeouts - before.Store.Timeouts)
	res.layer["solver.warm_starts"] = float64(after.SolverWarmStarts)
	res.layer["solver.fallbacks"] = float64(after.SolverFallbacks)
	res.layer["solver.warm_useful_ratio"] = ratio(float64(after.SolverWarmStarts),
		float64(after.SolverWarmStarts+after.SolverFallbacks))
}

// sameCounts reports whether two multisets are equal.
func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
