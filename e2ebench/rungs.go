package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/store"
	"umac/internal/token"
)

// This file is the traced run's ladder: direct calls into each layer's
// public functions, replaying a sample of the workload's own open-loop
// inputs. Each rung reports the median time per call and the allocations
// per call (testing.AllocsPerRun), which do not depend on the hardware.

// rungRuns is the AllocsPerRun repetition count.
const rungRuns = 200

// rung times fn over n inputs and counts its allocations.
func rung(n int, fn func(i int)) (medianUS, allocs float64) {
	ds := make([]int64, n)
	for i := range n {
		t0 := time.Now()
		fn(i)
		ds[i] = int64(time.Since(t0))
	}
	i := 0
	allocs = testing.AllocsPerRun(rungRuns, func() {
		fn(i % n)
		i++
	})
	return float64(quantile(ds, 0.5)) / 1e3, allocs
}

// rungs runs every ladder rung and returns its metrics. No writes are in
// flight, so the oracle's current state is the truth.
func (r *runner) rungs(workdir string) (map[string]float64, error) {
	m := make(map[string]float64)
	sample := r.sample
	if len(sample) == 0 {
		return nil, fmt.Errorf("rungs: no sampled inputs")
	}
	check := func(k key, dec bool) {
		o, t := r.pop.owned(k)
		if want := o.verdict(o.state.Load(), t.subject, actions[k.action]); dec != want {
			r.fail("rung: %s@%s %s: decision %v, oracle %v", t.subject, o.id, actions[k.action], dec, want)
		}
	}

	// pep: a Check answered from the decision cache. Each sampled key is
	// checked once to cache it; only keys that then hit are replayed.
	var hits []key
	for _, k := range sample {
		r.check(k)
		if res, ok := r.check(k); ok && res.CacheHit {
			hits = append(hits, k)
		}
	}
	if len(hits) == 0 {
		return nil, fmt.Errorf("rungs: no sampled key stayed cached")
	}
	m["pep.hit_us"], m["pep.hit_allocs"] = rung(len(hits), func(i int) {
		k := hits[i]
		o, t := r.pop.owned(k)
		r.d.host.Check(t.req, o.id, o.realm, r.pop.resources[k.res], actions[k.action])
	})

	// am: the in-process PDP with the Host's pairing, as the decision
	// handler calls it.
	queries := make([]core.DecisionQuery, len(sample))
	pairings := make([]string, len(sample))
	for i, k := range sample {
		o, t := r.pop.owned(k)
		pairings[i] = r.d.pairingID(o)
		queries[i] = core.DecisionQuery{PairingID: pairings[i], Host: hostID, Realm: o.realm,
			Resource: r.pop.resources[k.res], Action: actions[k.action], Token: t.token}
	}
	m["am.decide_us"], m["am.decide_allocs"] = rung(len(sample), func(i int) {
		dec, err := r.d.am.Decide(pairings[i], queries[i])
		if err != nil {
			r.fail("rung: AM.Decide: %v", err)
			return
		}
		check(sample[i], dec.Permit())
	})

	// token: validation with the AM's token key.
	svc := token.NewService(r.d.tokenKey, 0)
	m["token.validate_us"], m["token.validate_allocs"] = rung(len(sample), func(i int) {
		if _, err := svc.Validate(queries[i].Token); err != nil {
			r.fail("rung: token.Validate: %v", err)
		}
	})

	// policy: the compiled engine over the owners' current policies and
	// groups, rebuilt from the model.
	dir := &policy.Directory{}
	compiled := make([]*policy.CompiledPolicy, len(r.pop.owners))
	for i, o := range r.pop.owners {
		s := o.state.Load()
		dir.SetMembers(o.id, groupFriends, o.friends)
		dir.SetMembers(o.id, groupFamily, o.family)
		dir.SetMembers(o.id, groupBlocked, s.blocked)
		p := o.policy(s)
		compiled[i] = policy.Compile(&p)
	}
	engine := policy.NewEngine(dir)
	reqs := make([]policy.Request, len(sample))
	for i, k := range sample {
		o, t := r.pop.owned(k)
		reqs[i] = policy.Request{Subject: t.subject, Requester: t.app, Action: actions[k.action],
			Resource: core.ResourceRef{Host: hostID, Realm: o.realm, Resource: r.pop.resources[k.res]},
			Realm:    o.realm, Owner: o.id}
	}
	m["policy.eval_us"], m["policy.eval_allocs"] = rung(len(sample), func(i int) {
		res := engine.EvaluateCompiled(reqs[i], compiled[r.pop.tokens[sample[i].token].owner], nil)
		check(sample[i], res.Decision == core.DecisionPermit)
	})

	// store: a scratch store with the AM's flush policy (WAL, no fsync),
	// holding records shaped like the workload's policies.
	path := filepath.Join(workdir, "rung-store", "rung.json")
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(path)
	if err != nil {
		return nil, fmt.Errorf("rungs: open scratch store: %w", err)
	}
	defer os.RemoveAll(filepath.Dir(path))
	defer st.Close()
	pols := make([]policy.Policy, len(r.pop.owners))
	for i, o := range r.pop.owners {
		pols[i] = o.policy(o.state.Load())
	}
	keys := make([]string, len(sample))
	for i := range keys {
		keys[i] = fmt.Sprintf("rung-%04d", i)
	}
	m["store.put_us"], m["store.put_allocs"] = rung(len(sample), func(i int) {
		if _, err := st.Put("policy", keys[i], pols[i%len(pols)]); err != nil {
			r.fail("rung: store.Put: %v", err)
		}
	})
	m["store.get_us"], m["store.get_allocs"] = rung(len(sample), func(i int) {
		var p policy.Policy
		if _, err := st.Get("policy", keys[i], &p); err != nil {
			r.fail("rung: store.Get: %v", err)
		}
	})
	return m, nil
}
