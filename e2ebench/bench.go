package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"umac/internal/amclient"
)

// bench runs one workload end to end and computes its metrics.
func bench(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	pop := newPopulation(cfg.seed, cfg.sizes)
	r := &runner{pop: pop, wl: cfg.wl, seed: cfg.seed}
	if cfg.trace {
		r.tr = newTracer()
	}

	// Set-up: from an empty data directory to a provisioned, warmed
	// population, several times; only the last deployment is kept. On a
	// workload without concurrent owner writes, each deployment then
	// takes its share of the timed writes.
	var setups []int64
	ws := &writeStats{}
	for i := range setupRuns {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("data-%d", i))
		for _, o := range pop.owners { // every set-up provisions the initial groups and policies
			o.state.Store(o.initial)
		}
		t0 := time.Now()
		d, err := provision(pop, cfg.seed, dir, cfg.sizes.cacheCapacity(), r.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.d = d
		r.warm(setupWarm)
		setups = append(setups, int64(time.Since(t0)))
		logf("set-up %d: %v", i, time.Since(t0).Round(time.Millisecond))
		if cfg.wl.writeRate == 0 {
			r.probeWrites(ws, uint64(i))
		}
		if i < setupRuns-1 {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			runtime.GC()
		}
	}
	d := r.d
	defer os.RemoveAll(d.dir)

	// Two thirds of the measured time go to the fixed-rate phase, one
	// third to the closed loop, which must span several garbage
	// collections for its CPU time per Check to settle.
	openSecs, closedSecs := cfg.seconds*2/3, cfg.seconds/3
	m := make(map[string]float64)
	cache := d.host.Cache()

	// Steady state of the Host's decision cache (not timed).
	nSteady, err := r.steady(cfg.sizes.cacheCapacity())
	if err != nil {
		return nil, fmt.Errorf("steady state: %w", err)
	}

	// Owner writes concurrent with the fixed-rate reads (owner_churn only)
	// are the timed ones.
	d.quiesce()
	stopWrites := func() {}
	if cfg.wl.writeRate > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		pacing := rand.New(rand.NewPCG(cfg.seed, phasePacing<<8))
		stop := r.backgroundWrites(paced(ctx, cfg.wl.writeRate, pacing), phaseWrites)
		stopWrites = func() {
			cancel()
			ws = stop()
		}
	}
	stopSampler := func() int { return 0 }
	if r.tr != nil {
		stopSampler = sampleAuditDepth(d.amURL)
	}

	// Open loop at the workload's fixed rate.
	h0, m0 := cache.Stats()
	ev0 := cache.Evictions()
	audit0 := d.am.Audit().Len()
	var sl *slicer
	if r.tr != nil {
		sl = startSlicer(r.tr)
	}
	open, err := r.openLoop(int(cfg.wl.rate * openSecs))
	if err != nil {
		return nil, err
	}
	if sl != nil {
		sl.finish()
	}
	stopWrites()
	h1, m1 := cache.Stats()
	ev1 := cache.Evictions()
	nOpen := int64(len(open.lat))
	auditPerCheck := float64(d.am.Audit().Len()-audit0) / float64(nOpen)
	if r.tr == nil {
		runtime.GC()
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		m["heap_mb"] = float64(mst.HeapAlloc) / (1 << 20)
	}

	// Closed loop: CPU time per Check, and goodput within the latency
	// limit. owner_churn keeps writing at the open loop's ratio of Checks
	// to writes; those writes are checked, not timed.
	d.quiesce()
	var wr *writer
	if cfg.wl.writeRate > 0 {
		wr = r.newWriter(phaseClosedWrites)
	}
	var sl2 *slicer
	if r.tr != nil {
		sl2 = startSlicer(r.tr)
	}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	closed := r.closedLoop(phaseClosed, int64(cfg.wl.closedRate*closedSecs), wr)
	d.am.Audit() // the loop's decisions are audited before its CPU time is read
	closedWall := time.Since(t0)
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	if sl2 != nil {
		sl2.finish()
	}

	auditMax := stopSampler()

	res := &result{Metrics: make(map[string]metricValue)}
	if r.tr != nil {
		rm, err := r.rungs(cfg.workdir)
		if err != nil {
			return nil, err
		}
		for k, v := range rm {
			m[k] = v
		}
		a := r.tr.analyze()
		res.spans = a
		if a.droppedSpan > 0 {
			logf("span buffer full: %d spans not kept", a.droppedSpan)
		}
		if err := r.tr.write(filepath.Join(cfg.workdir, "spans-"+cfg.wl.name+".tsv")); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		eh := d.am.Events().Health()
		dHits := h1 - h0
		dMiss := m1 - m0
		m["pep.hit_ratio"] = float64(dHits) / float64(max(1, dHits+dMiss))
		m["pep.shared_ratio"] = float64(max(0, open.resHits-dHits)) / float64(max(1, nOpen-dHits))
		m["pep.evictions_per_kcheck"] = float64(ev1-ev0) / float64(nOpen) * 1000
		m["pep.miss_self_us"] = us(quantile(a.missSelf, 0.5))
		m["amclient.rtt_p50_us"] = us(quantile(a.rttDecide, 0.5))
		m["amclient.rtt_p99_us"] = us(quantile(a.rttDecide, 0.99))
		m["amclient.self_us"] = us(quantile(a.rttSelf, 0.5))
		m["am.http.decide_us"] = us(quantile(a.amDecide, 0.5))
		m["am.http.self_us"] = m["am.http.decide_us"] - m["am.decide_us"]
		m["am.http.write_us"] = us(quantile(a.amWrite, 0.5))
		m["requester.obtain_ms"] = ms(quantile(durations(d.obtain), 0.5))
		m["store.wal_bytes_per_write"] = float64(ws.walBytes) / float64(max(1, len(ws.ack)))
		m["events.deliver_p99_ms"] = ms(quantile(durations(ws.deliver), 0.99))
		m["events.published"] = float64(eh.Published)
		m["events.dropped"] = float64(eh.Dropped)
		m["events.max_lag"] = float64(eh.MaxLag)
		m["audit.events_per_check"] = auditPerCheck
		m["audit.queue_max"] = float64(auditMax)
		var untraced int64
		var latU, latT []int64
		for i, t := range open.traced {
			if t {
				latT = append(latT, open.lat[i])
			} else {
				untraced++
				latU = append(latU, open.lat[i])
			}
		}
		u := sl.untraced
		m["go.allocs_per_check"] = float64(u.mallocs) / float64(max(1, untraced))
		m["go.bytes_per_check"] = float64(u.bytes) / float64(max(1, untraced))
		m["go.gc_per_kcheck"] = float64(u.gcs) / float64(max(1, untraced)) * 1000
		m["go.gc_pause_p99_us"] = us(quantile(toInt64(u.pauses), 0.99))
		m["gen.late_p99_us"] = us(quantile(open.late, 0.99))
		m["check_p50_us"] = us(quantile(latU, 0.5))
		m["check_p99_us"] = us(quantile(latU, 0.99))
		m["write_p99_ms"] = ms(quantile(durations(ws.ack), 0.99))
		m["revoke_p99_ms"] = ms(quantile(durations(ws.revoke), 0.99))
		gpU := float64(closed.good[0]) / sl2.dur[0].Seconds()
		m["check_goodput_rps"] = gpU
		gpT := float64(closed.good[1]) / sl2.dur[1].Seconds()
		m["gen.trace_overhead_goodput"] = 1 - gpT/gpU
		m["gen.trace_overhead_p50"] = float64(quantile(latT, 0.5))/float64(quantile(latU, 0.5)) - 1
	} else {
		m["check_cpu_us"] = us(int64(cpu1-cpu0)) / float64(closed.checks[0])
		m["write_p50_ms"] = ms(quantile(durations(ws.ack), 0.5))
		m["revoke_p50_ms"] = ms(quantile(durations(ws.revoke), 0.5))
		m["setup_s"] = float64(quantile(setups, 0.5)) / 1e9
	}
	logf("steady state: %d Checks; open loop: %d Checks at %.0f/s, hit ratio %.3f, %d evictions; closed loop: %d Checks in %v, %d within %v; %d owner writes",
		nSteady, nOpen, cfg.wl.rate, float64(h1-h0)/float64(max(1, h1-h0+m1-m0)), ev1-ev0,
		closed.checks[0]+closed.checks[1], closedWall.Round(time.Millisecond), closed.good[0]+closed.good[1], cfg.wl.limit, len(ws.ack))

	// Correctness: every acknowledged write reads back from the live AM,
	// and again from the store reopened after a clean close.
	r.readBack(d.amURL, &http.Client{Transport: d.ownerTr}, "live")
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if err := r.verifyReopened(); err != nil {
		return nil, err
	}

	res.Attempted = r.attempted.Load()
	res.Failed = r.failed.Load()
	res.Correct = res.Failed == 0
	res.failLog = r.failLog
	if r.tr != nil {
		m["gen.fail_ratio"] = float64(res.Failed) / float64(max(1, res.Attempted))
	}
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return res, nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

func toInt64(xs []uint64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

// sampleAuditDepth polls the AM's health endpoint for the audit
// pipeline's queue depth until stopped, and returns the deepest it saw.
func sampleAuditDepth(amURL string) func() int {
	tr := newBaseTransport()
	c := amclient.New(amclient.Config{BaseURL: amURL, HTTPClient: &http.Client{Transport: tr}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var deepest int
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if h, err := c.Healthz(); err == nil {
					deepest = max(deepest, h.Audit.PipelineDepth)
				}
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		tr.CloseIdleConnections()
		return deepest
	}
}
