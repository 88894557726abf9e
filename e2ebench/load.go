package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/store"
)

// loadGoroutines is how many goroutines drive Checks: the machine's two
// cores, shared with the AM and the Host in this process.
const loadGoroutines = 2

// Phases seed their own random streams, so no phase replays another's
// key sequence (replaying would turn misses into hits).
const (
	phaseWarm = 1 + iota
	phaseFill
	phaseOpen
	phaseClosed
	phaseWrites       // the timed owner writes
	phaseFillWrites   // owner_churn's writes while it reaches steady state
	phasePacing       // when owner_churn's timed writes are due
	phaseClosedWrites // owner_churn's writes during the closed loop
	phaseWarmWrites   // untimed writes before the timed ones on decide_*
)

// sampleSize is how many open-loop inputs the ladder rungs replay.
const sampleSize = 2000

// revokeTimeout is how long a write waits for the Host to apply its
// invalidation before the revocation counts as undelivered.
const revokeTimeout = 5 * time.Second

// maxBacklog is how late an open-loop Check may start; one due longer ago
// is not sent and counts as failed.
const maxBacklog = 10 * time.Second

// runner drives one workload against one provisioned deployment.
type runner struct {
	pop  *population
	d    *deployment
	wl   workload
	seed uint64
	tr   *tracer // nil when untraced

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failLog   []string

	sample []key // the open-loop phase's first inputs, replayed by the rungs
}

func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failLog) < 10 {
		r.failLog = append(r.failLog, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

// drawer draws Check inputs from the workload's key distribution.
type drawer struct {
	pop  *population
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (r *runner) drawer(phase, g uint64) *drawer {
	rng := rand.New(rand.NewPCG(r.seed, phase<<8|g))
	d := &drawer{pop: r.pop, rng: rng}
	if r.wl.zipfS > 0 {
		d.zipf = rand.NewZipf(rng, r.wl.zipfS, 1, r.pop.keyCount()-1)
	}
	return d
}

func (d *drawer) next() key {
	n := d.pop.keyCount()
	if d.zipf != nil {
		return d.pop.keyAt((d.zipf.Uint64()*d.pop.keyA + d.pop.keyB) % n)
	}
	return d.pop.keyAt(d.rng.Uint64N(n))
}

// check runs one Check through the Host and compares its verdict with the
// oracle. It reports whether the Check succeeded with a correct verdict.
func (r *runner) check(k key) (pep.CheckResult, bool) {
	o, t := r.pop.owned(k)
	a := actions[k.action]
	before := o.snap()
	res, err := r.d.host.Check(t.req, o.id, o.realm, r.pop.resources[k.res], a)
	if err != nil {
		r.fail("check %s %s %s: %v", t.subject, r.pop.resources[k.res], a, err)
		return res, false
	}
	after := o.snap()
	if res.Verdict != pep.VerdictAllow && res.Verdict != pep.VerdictDeny {
		r.fail("check %s %s %s: verdict %v (%s)", t.subject, r.pop.resources[k.res], a, res.Verdict, res.Reason)
		return res, false
	}
	if !o.allows(before, after, t.subject, a, res.Verdict == pep.VerdictAllow) {
		r.fail("check %s@%s %s: verdict %v, oracle disagrees", t.subject, o.id, a, res.Verdict)
		return res, false
	}
	return res, true
}

// timedCheck is check, recorded as a check span while tracing is on. Hits
// are kept only when keepHits is set, to bound the span buffer.
func (r *runner) timedCheck(k key, slot *atomic.Uint64, spans *[]span, keepHits bool) (pep.CheckResult, bool) {
	if slot == nil || !r.tr.on.Load() {
		return r.check(k)
	}
	s := span{kind: spanCheck, class: classMiss, id: r.tr.nextID.Add(1)}
	slot.Store(s.id)
	s.start = r.tr.now()
	res, ok := r.check(k)
	s.end = r.tr.now()
	slot.Store(0)
	if res.CacheHit {
		s.class = classHit
	}
	if s.class == classMiss || keepHits {
		*spans = append(*spans, s)
	}
	return res, ok
}

// parallel runs fn on loadGoroutines goroutines and waits for them.
func parallel(fn func(g int)) {
	var wg sync.WaitGroup
	for g := range loadGoroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

// warm runs n Checks drawn from the workload's distribution, closed loop.
func (r *runner) warm(n int) {
	parallel(func(g int) {
		dr := r.drawer(phaseWarm, uint64(g))
		for range n / loadGoroutines {
			r.check(dr.next())
		}
	})
	r.attempted.Add(int64(n / loadGoroutines * loadGoroutines))
}

// fillBatch is how many Checks each goroutine runs between looks at the
// cache's fill level.
const fillBatch = 1024

// churnCycles is how many times, on average, owner_churn's steady-state
// warm-up revokes each owner's cached verdicts.
const churnCycles = 3

// steady brings the Host's decision cache to the workload's steady state
// with Checks drawn from its distribution, closed loop, and returns how
// many Checks that took. Without owner writes the steady state is a full
// cache, where every miss evicts the least recently used entry, as on a
// Host that has run for a while: it draws until the cache holds capacity
// entries. With writes, each revoking one owner's cached verdicts, the
// cache settles where revocations balance misses; that depends on how
// many Checks pass between two writes to one owner, not on time. So it
// runs churnCycles write cycles over every owner at the workload's ratio
// of Checks to writes.
func (r *runner) steady(capacity int) (int64, error) {
	if r.wl.writeRate > 0 {
		n := int64(churnCycles*len(r.pop.owners)) * r.wl.checksPerWrite()
		r.closedLoop(phaseFill, n, r.newWriter(phaseFillWrites))
		return n, nil
	}
	cache := r.d.host.Cache()
	limit := int64(64 * capacity) // a cache that has not filled by then never will
	var n atomic.Int64
	var full atomic.Bool
	parallel(func(g int) {
		dr := r.drawer(phaseFill, uint64(g))
		for !full.Load() && n.Load() < limit {
			for range fillBatch {
				r.check(dr.next())
			}
			n.Add(fillBatch)
			if cache.Len() >= capacity {
				full.Store(true)
			}
		}
	})
	r.attempted.Add(n.Load())
	if !full.Load() {
		return n.Load(), fmt.Errorf("the decision cache holds %d entries after %d Checks, want %d", cache.Len(), n.Load(), capacity)
	}
	return n.Load(), nil
}

// openResult is one open-loop phase: a fixed number of Checks at a fixed
// offered rate, each timed from its due time.
type openResult struct {
	lat     []int64 // end − due, ns
	late    []int64 // send − due, ns
	traced  []bool
	resHits int64 // Checks answered without a round-trip of their own
}

func (r *runner) openLoop(n int) (*openResult, error) {
	interval := float64(time.Second) / r.wl.rate
	res := &openResult{lat: make([]int64, n), late: make([]int64, n), traced: make([]bool, n)}
	// The inputs are drawn before the clock starts, so the same seed gives
	// the same inputs at the same due times whichever goroutine sends them.
	dr := r.drawer(phaseOpen, 0)
	keys := make([]key, n)
	for i := range keys {
		keys[i] = dr.next()
	}
	r.sample = keys[:min(n, sampleSize)]
	start := time.Now().Add(time.Millisecond)
	// The goroutines share one schedule: each takes the next due Check, so
	// a Check waits only while both are busy, as on a two-worker server.
	// Every Check is timed from its due time, so a stall shows in the
	// Checks queued behind it. That includes a send held up by the AM's
	// and the Host's own work in this runtime (GC, handlers, stream
	// readers); the send's delay alone is reported as gen.late_p99_us.
	var next atomic.Int64
	var errs [loadGoroutines]error
	var hits [loadGoroutines]int64
	var spans [loadGoroutines][]span
	parallel(func(g int) {
		p, err := newPacer()
		if err != nil {
			errs[g] = err
			return
		}
		defer p.close()
		var slot *atomic.Uint64
		if r.tr != nil {
			slot = r.tr.register()
		}
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			due := start.Add(time.Duration(float64(i) * interval))
			if err := p.waitUntil(due); err != nil {
				errs[g] = err
				return
			}
			sent := time.Now()
			if sent.Sub(due) > maxBacklog {
				r.fail("open loop: generator more than %v behind schedule", maxBacklog)
				r.attempted.Add(1)
				continue
			}
			k := keys[i]
			res.traced[i] = r.tr != nil && r.tr.on.Load()
			cr, _ := r.timedCheck(k, slot, &spans[g], true)
			res.lat[i] = int64(time.Since(due))
			res.late[i] = int64(sent.Sub(due))
			if cr.CacheHit {
				hits[g]++
			}
			r.attempted.Add(1)
		}
	})
	for g := range loadGoroutines {
		if errs[g] != nil {
			return nil, fmt.Errorf("open loop: %w", errs[g])
		}
		res.resHits += hits[g]
		if r.tr != nil {
			r.tr.add(spans[g]...)
		}
	}
	return res, nil
}

// closedResult is one closed-loop phase; index 1 holds traced slices.
type closedResult struct {
	checks, good [2]int64
}

// closedLoop runs n Checks from loadGoroutines callers back to back,
// counting those that return the oracle's verdict within the workload's
// latency limit. A fixed count rather than a fixed time keeps the phase's
// mix of hits, misses and evictions the same on every run, whatever the
// throughput. With a writer, the caller of every checksPerWrite-th Check
// also makes an owner write (checked, not timed), so writes keep their
// share of the phase too.
func (r *runner) closedLoop(phase uint64, n int64, wr *writer) *closedResult {
	dr := r.drawer(phase, 0)
	keys := make([]key, n)
	for i := range keys {
		keys[i] = dr.next()
	}
	every := r.wl.checksPerWrite()
	var next atomic.Int64
	var per [loadGoroutines]closedResult
	var spans [loadGoroutines][]span
	parallel(func(g int) {
		var slot *atomic.Uint64
		if r.tr != nil {
			slot = r.tr.register()
		}
		c := &per[g]
		for {
			i := next.Add(1) - 1
			if i >= n {
				return
			}
			if wr != nil && i%every == every-1 {
				wr.write(r)
			}
			t := 0
			if r.tr != nil && r.tr.on.Load() {
				t = 1
			}
			t0 := time.Now()
			_, ok := r.timedCheck(keys[i], slot, &spans[g], false)
			c.checks[t]++
			if ok && time.Since(t0) <= r.wl.limit {
				c.good[t]++
			}
		}
	})
	var out closedResult
	for g := range loadGoroutines {
		for i := range 2 {
			out.checks[i] += per[g].checks[i]
			out.good[i] += per[g].good[i]
		}
		if r.tr != nil {
			r.tr.add(spans[g]...)
		}
	}
	r.attempted.Add(out.checks[0] + out.checks[1])
	return &out
}

// writeStats collects owner writes: acknowledgement, Host-side
// application of the invalidation (revocation), and frame arrival at the
// Host's transport (delivery), all measured from the write's send.
type writeStats struct {
	ack, revoke, deliver []time.Duration
	walBytes             int64
}

// ownerWrite is one verdict-flipping owner write and the Check it flips.
type ownerWrite struct {
	oi    int
	group bool        // toggle subj in the blocked group; else toggle friends' write
	subj  core.UserID // group writes only
	add   bool        // group writes: subj joins the blocked group
	next  *ownerState
	probe key
}

// pickWrite draws an owner write that flips at least one verdict the
// owner's requesters hold, and picks one flipped key as the probe.
func (r *runner) pickWrite(rng *rand.Rand) (ownerWrite, bool) {
	for range 64 {
		w := ownerWrite{oi: rng.IntN(len(r.pop.owners)), group: rng.IntN(2) == 0}
		o := r.pop.owners[w.oi]
		cur := o.state.Load()
		if w.group {
			w.subj = r.pop.tokens[o.tokens[rng.IntN(len(o.tokens))]].subject
			w.next, w.add = cur.withBlockedToggled(w.subj)
		} else {
			w.next = &ownerState{blocked: cur.blocked, friendsWrite: !cur.friendsWrite}
		}
		off := rng.IntN(len(o.tokens))
		for j := range o.tokens {
			ti := o.tokens[(off+j)%len(o.tokens)]
			subj := r.pop.tokens[ti].subject
			for ai, a := range actions {
				if o.verdict(cur, subj, a) != o.verdict(w.next, subj, a) {
					w.probe = key{token: ti, res: rng.IntN(len(r.pop.resources)), action: ai}
					return w, true
				}
			}
		}
	}
	return ownerWrite{}, false
}

// write performs one owner write through amclient and waits until the
// Host has applied the matching stream event. The probe Check runs before
// (caching the superseded verdict) and after (which must then see the new
// verdict from the AM, not the stale one from the cache).
func (r *runner) write(rng *rand.Rand, ws *writeStats) {
	r.attempted.Add(3) // the write and its two probe Checks
	w, ok := r.pickWrite(rng)
	if !ok {
		r.fail("no verdict-flipping owner write found")
		return
	}
	o := r.pop.owners[w.oi]
	r.check(w.probe)
	notes := r.d.streams[w.oi].notes
	for len(notes) > 0 {
		<-notes
	}
	oc := r.d.owners[w.oi]
	o.pending.Store(w.next)
	t0 := time.Now()
	var err error
	switch {
	case !w.group:
		err = oc.UpdatePolicy(o.policy(w.next))
	case w.add:
		_, err = oc.AddGroupMember(o.id, groupBlocked, w.subj)
	default:
		err = oc.RemoveGroupMember(o.id, groupBlocked, w.subj)
	}
	ack := time.Since(t0)
	if err != nil {
		// The write's fate is unknown: the oracle keeps accepting both
		// states for this owner.
		r.fail("owner write for %s: %v", o.id, err)
		return
	}
	ws.ack = append(ws.ack, ack)
	timer := time.NewTimer(revokeTimeout)
	select {
	case n := <-notes:
		ws.revoke = append(ws.revoke, n.applied.Sub(t0))
		ws.deliver = append(ws.deliver, n.delivered.Sub(t0))
	case <-timer.C:
		r.fail("owner write for %s: invalidation not applied at the Host within %v", o.id, revokeTimeout)
	}
	timer.Stop()
	o.state.Store(w.next)
	o.pending.Store(nil)
	r.check(w.probe)
}

// writeLoop issues owner writes, the i-th once wait(i) returns true, and
// stops at the first false.
func (r *runner) writeLoop(wait func(i int) bool, phase uint64) *writeStats {
	wr := r.newWriter(phase)
	wal0 := r.d.st.WALSize()
	for i := 0; wait(i); i++ {
		wr.write(r)
	}
	wr.ws.walBytes = r.d.st.WALSize() - wal0
	return &wr.ws
}

// probeWrites makes the timed owner writes of a workload without
// concurrent ones on the i-th set-up deployment and adds them to ws. They
// run back to back on the fresh deployment (small heap, no backlog from a
// previous phase) and before its cache is brought to its steady state, so
// their invalidations do not empty it again. A fresh deployment's first
// few hundred writes are slower than the rest, so untimed writes come
// first. Spread over every set-up deployment, the timed writes sample the
// machine's slowly wandering speed at several times, not in one burst.
func (r *runner) probeWrites(ws *writeStats, i uint64) {
	r.writeLoop(backToBack(warmWrites), phaseWarmWrites<<4|i)
	r.d.quiesce()
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	w := r.writeLoop(backToBack(probeWrites), phaseWrites<<4|i)
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	ws.ack = append(ws.ack, w.ack...)
	ws.revoke = append(ws.revoke, w.revoke...)
	ws.deliver = append(ws.deliver, w.deliver...)
	ws.walBytes += w.walBytes
}

// backToBack lets count writes go without waiting.
func backToBack(count int) func(int) bool {
	return func(i int) bool { return i < count }
}

// paced lets rate writes a second go until ctx ends, each at a random
// point of its own 1/rate slot. Evenly spaced writes would keep one phase
// against the open loop's evenly spaced Checks for a whole run, and which
// phase a run happened to get would set its write latencies.
func paced(ctx context.Context, rate float64, rng *rand.Rand) func(int) bool {
	start := time.Now()
	slot := float64(time.Second) / rate
	return func(i int) bool {
		t := time.NewTimer(time.Until(start.Add(time.Duration((float64(i) + rng.Float64()) * slot))))
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}
}

// writer makes owner writes for any goroutine, one at a time.
type writer struct {
	mu  sync.Mutex
	rng *rand.Rand
	ws  writeStats
}

func (r *runner) newWriter(phase uint64) *writer {
	return &writer{rng: rand.New(rand.NewPCG(r.seed, phase<<8))}
}

func (w *writer) write(r *runner) {
	w.mu.Lock()
	defer w.mu.Unlock()
	r.write(w.rng, &w.ws)
}

// backgroundWrites runs writeLoop on a goroutine of its own. The returned
// function waits until it has stopped and returns its statistics.
func (r *runner) backgroundWrites(wait func(int) bool, phase uint64) func() *writeStats {
	ch := make(chan *writeStats, 1)
	go func() { ch <- r.writeLoop(wait, phase) }()
	return func() *writeStats { return <-ch }
}

// readBack compares every owner's blocked group and general policy at the
// AM behind amURL with the model: every acknowledged write must be there.
func (r *runner) readBack(amURL string, hc *http.Client, when string) {
	for _, o := range r.pop.owners {
		oc := amclient.New(amclient.Config{BaseURL: amURL, HTTPClient: hc, User: o.id})
		s := o.state.Load()
		r.attempted.Add(2)
		members, err := oc.GroupMembers(o.id, groupBlocked)
		slices.Sort(members)
		if err != nil || !slices.Equal(members, s.blocked) {
			r.fail("%s: %s blocked group %v (err %v), want %v", when, o.id, members, err, s.blocked)
		}
		p, err := oc.GetPolicy(o.policyID)
		if err != nil || len(p.Rules) < 2 || slices.Contains(p.Rules[1].Actions, core.ActionWrite) != s.friendsWrite {
			r.fail("%s: %s policy does not match the last acknowledged write (err %v)", when, o.id, err)
		}
	}
}

// verifyReopened reopens the closed deployment's store from its data
// directory under a fresh AM and reads every acknowledged write back again.
func (r *runner) verifyReopened() error {
	st, err := store.Open(filepath.Join(r.d.dir, "am.json"))
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	a := am.New(am.Config{Name: "bench-am", Store: st, TokenKey: r.d.tokenKey, Notifier: &am.Outbox{}})
	srv, amURL, err := serve(a.Handler())
	if err != nil {
		a.Close()
		st.Close()
		return err
	}
	tr := newBaseTransport()
	r.readBack(amURL, &http.Client{Transport: tr}, "after reopen")
	tr.CloseIdleConnections()
	srv.Close()
	a.Close()
	return st.Close()
}

// memDelta accumulates runtime.MemStats differences over selected slices.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pauses              []uint64 // ns
}

func (m *memDelta) add(from, to *runtime.MemStats) {
	m.mallocs += to.Mallocs - from.Mallocs
	m.bytes += to.TotalAlloc - from.TotalAlloc
	m.gcs += uint64(to.NumGC - from.NumGC)
	for gc := from.NumGC + 1; gc <= to.NumGC && to.NumGC-gc < 256; gc++ {
		m.pauses = append(m.pauses, to.PauseNs[(gc+255)%256])
	}
}

// slicer alternates tracing off and on in short slices during a traced
// run's phase, so traced and untraced halves see the same cache state and
// their difference is the tracing overhead. Runtime statistics are kept
// for the untraced slices only.
type slicer struct {
	t        *tracer
	stop     chan struct{}
	done     chan struct{}
	dur      [2]time.Duration // untraced, traced
	untraced memDelta
}

const sliceLen = 200 * time.Millisecond

func startSlicer(t *tracer) *slicer {
	s := &slicer{t: t, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var prev, cur runtime.MemStats
		runtime.ReadMemStats(&prev)
		last := time.Now()
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		flip := func() {
			runtime.ReadMemStats(&cur)
			now := time.Now()
			on := t.on.Load()
			if on {
				s.dur[1] += now.Sub(last)
			} else {
				s.dur[0] += now.Sub(last)
				s.untraced.add(&prev, &cur)
			}
			prev, last = cur, now
			t.on.Store(!on)
		}
		for {
			select {
			case <-tick.C:
				flip()
			case <-s.stop:
				flip()
				t.on.Store(false)
				return
			}
		}
	}()
	return s
}

func (s *slicer) finish() {
	close(s.stop)
	<-s.done
}
