package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/homeo"
	"repro/internal/tpcc"
)

// simSpec configures a workload on the deterministic simulator: every
// modeled cost is virtual, so the wall and CPU time a Drive takes is the
// protocol code's own.
type simSpec struct {
	Name              string        `json:"name"`
	Warehouses        int           `json:"warehouses"`
	Districts         int           `json:"districts_per_warehouse"`
	StockPerWarehouse int           `json:"stock_per_warehouse"`
	Customers         int           `json:"customers"`
	HotNewOrderPct    float64       `json:"hot_new_order_pct"`
	Sites             int           `json:"sites"`
	RTT               time.Duration `json:"rtt_ns"`
	ClientsPerSite    int           `json:"clients_per_site"`
	// Warmup and Measure are the virtual window of one Drive.
	Warmup  time.Duration `json:"warmup_ns"`
	Measure time.Duration `json:"measure_ns"`
	// MinDrives is the least number of boot-and-drive repetitions a run
	// makes, however short its time.
	MinDrives int `json:"min_drives"`
}

var simTPCC = simSpec{
	Name: "sim-tpcc", Warehouses: 10, Districts: 10, StockPerWarehouse: 50, Customers: 1000,
	HotNewOrderPct: 10, Sites: 2, RTT: 100 * time.Millisecond, ClientsPerSite: 16,
	Warmup: 2 * time.Second, Measure: 30 * time.Second, MinDrives: 3,
}

// simCounts are the exact counts one Drive must repeat for its seed.
type simCounts struct {
	Committed, Synced, Logged int64
	Store                     homeo.StoreStats
}

func (s simSpec) boot(rc runConfig, cs classSet) (*homeo.Cluster, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	w, err := tpcc.New(tpcc.Config{
		Warehouses: s.Warehouses, DistrictsPerWarehouse: s.Districts, StockPerWarehouse: s.StockPerWarehouse,
		Customers: s.Customers, NSites: s.Sites, H: s.HotNewOrderPct, Seed: rc.seed,
	})
	if err != nil {
		return nil, st, err
	}
	c, err := homeo.New(homeo.Options{
		Runtime: homeo.RuntimeSim, Sites: s.Sites, RTT: s.RTT, Workload: w,
		ClientsPerSite: s.ClientsPerSite, Warmup: s.Warmup, Measure: s.Measure,
		Seed: rc.seed, EnableLog: true,
	})
	if err != nil {
		return nil, st, err
	}
	st.create = time.Since(t0)
	batch := make([]homeo.ClassSpec, len(cs.batch))
	for i, r := range cs.batch {
		batch[i] = spec(r)
	}
	t := time.Now()
	if _, err := c.RegisterBatch(batch); err != nil {
		c.Close()
		return nil, st, fmt.Errorf("register batch: %w", err)
	}
	st.batch = time.Since(t)
	for _, r := range cs.singles {
		t := time.Now()
		if _, err := c.Register(spec(r)); err != nil {
			c.Close()
			return nil, st, fmt.Errorf("register %s: %w", r.Name, err)
		}
		st.singles = append(st.singles, time.Since(t))
	}
	t = time.Now()
	if _, err := c.Recover(); err != nil {
		c.Close()
		return nil, st, fmt.Errorf("recover: %w", err)
	}
	st.recover = time.Since(t)
	st.total = time.Since(t0)
	return c, st, nil
}

// run boots a fresh cluster and drives one virtual window on it, again
// and again until the run's time is up. Every repetition uses the same
// seed, so each must reproduce the first one's counts exactly.
func (s simSpec) run(rc runConfig, traced bool) (*result, error) {
	res := newResult()
	cs := genClasses(rc.seed)
	deadline := time.Now().Add(time.Duration(rc.seconds) * time.Second)
	steal0 := readSteal()
	var setup setupLayers
	var drives, statsReads, cpuPer, rates []float64
	var committed, dropped int64
	var gAcc goSample
	var cc cpuCounts
	var first simCounts
	var last homeo.Stats
	var before homeo.Stats
	var eng0, eng1 engineCounters
	for i := 0; i < s.MinDrives || time.Now().Before(deadline); i++ {
		runtime.GC() // the previous drive's garbage is not this boot's cost
		c, st, err := s.boot(rc, cs)
		if err != nil {
			return nil, err
		}
		setup.add(st)
		if i == 0 {
			boot := c.Stats()
			res.layer["cache.analysis_hit_ratio"] = ratio(float64(boot.AnalysisCacheHits),
				float64(boot.AnalysisCacheHits+boot.AnalysisCacheMisses))
		}
		before, eng0 = c.Stats(), readEngine(c)
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				c.Close()
				return nil, err
			}
		}
		g0, cpu0, t := readGo(), cpuTime(), time.Now()
		stats := c.Drive()
		d, cpu1, g1 := time.Since(t), cpuTime(), readGo()
		if traced {
			pprof.StopCPUProfile()
			if err := cc.addProfile(prof.Bytes()); err != nil {
				c.Close()
				return nil, err
			}
		}
		gAcc.add(g1.sub(g0))
		drives = append(drives, ms(d))
		cpuPer = append(cpuPer, ratio(float64(cpu1-cpu0)/float64(time.Microsecond), float64(stats.Committed)))
		rates = append(rates, ratio(float64(stats.Committed), d.Seconds()))
		committed += stats.Committed
		dropped += stats.Dropped
		t = time.Now()
		last = c.Stats()
		statsReads = append(statsReads, ms(time.Since(t)))
		eng1 = readEngine(c)

		c.Close()
		res.checkErr("replay_equivalence", c.CheckReplayEquivalence())
		live := c.System().E.Live()
		res.check("no_live_processes", live == 0, fmt.Sprintf("drive %d: %d live", i, live))
		got := simCounts{Committed: stats.Committed, Synced: stats.Synced, Logged: int64(c.Committed()), Store: stats.Store}
		if i == 0 {
			first = got
		}
		res.check("same_counts_for_seed", got == first, fmt.Sprintf("drive %d: %+v, first drive: %+v", i, got, first))
	}

	res.info["host_steal_pct"] = readSteal().pctSince(steal0)
	res.attempted = int(committed + dropped)
	res.failed = int(dropped)
	res.info["error_pct"] = 100 * ratio(float64(dropped), float64(committed+dropped))
	res.info["sync_ratio_pct"] = last.SyncRatioPct
	res.info["exact_counts"] = fmt.Sprintf("%+v", first)
	res.info["virtual_latency_ms_p50_p99"] = fmt.Sprintf("%.3f %.3f", ms(last.LatencyP50), ms(last.LatencyP99))

	res.e2e("latency_p50_ms", percentile(drives, 50), len(drives))
	res.e2e("latency_p99_ms", percentile(drives, 99), len(drives))
	res.e2e("max_rate_at_slo_txn_s", percentile(rates, 50), len(rates))
	res.e2e("cpu_us_per_txn", percentile(cpuPer, 50), len(cpuPer))
	setup.report(res)
	res.e2e("stats_read_ms_p90", percentile(statsReads, 90), len(statsReads))
	res.e2e("max_rss_mb", maxRSSMB(), 1)

	if !traced {
		return res, nil
	}
	for k, v := range cc.shares() {
		res.layer[k] = v
	}
	for k, v := range goLayers(gAcc, committed) {
		res.layer[k] = v
	}
	windowCounters(res, before, last, eng0, eng1)
	res.layer["stats.samples_held"] = float64(eng1.samplesHeld)
	return res, nil
}
