package sim

import (
	"errors"
	"testing"
	"time"

	"umac/internal/am"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/requester"
)

// waitCacheLen polls until h's decision cache holds want entries: the
// stream applies evictions asynchronously, after the generation moved.
func waitCacheLen(t *testing.T, h *SimpleHost, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.Enforcer.Cache().Len() != want {
		if time.Now().After(deadline) {
			t.Fatalf("cache len = %d, want %d", h.Enforcer.Cache().Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInvalidationPushRevokesImmediately verifies the cache-control
// extension: with the Host subscribed to the AM's invalidation stream, a
// policy change at the AM takes effect at the Host at once, even though
// the cached decision's TTL has not expired.
func TestInvalidationPushRevokesImmediately(t *testing.T) {
	// Long cache TTL: without the push, the stale permit would survive.
	w, h := setupWorldCfg(t, am.Config{DefaultCacheTTL: time.Hour})
	if err := w.SettleInvalidations(h.Enforcer, "bob"); err != nil {
		t.Fatal(err)
	}

	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if h.Enforcer.Cache().Len() == 0 {
		t.Fatal("decision not cached")
	}

	// Bob flips the policy to deny-everyone; the AM streams the invalidation.
	policies := w.AM.ListPolicies("bob")
	pol := policies[0]
	pol.Rules = []policy.Rule{{
		Effect:   policy.EffectDeny,
		Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
	}}
	gen := h.Enforcer.Cache().Gen()
	if err := w.AM.UpdatePolicy("bob", pol); err != nil {
		t.Fatal(err)
	}
	if err := h.AwaitInvalidation(gen); err != nil {
		t.Fatal(err)
	}
	waitCacheLen(t, h, 0)

	// The very next access is denied — no TTL wait.
	resp, err := alice.Get(h.ResourceURL("photo-1"), core.ActionRead)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != 403 {
			t.Fatalf("status = %d, want 403 immediately after policy change", resp.StatusCode)
		}
	} else if !errors.Is(err, requester.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

// TestInvalidationPushOnGroupChange covers the group-membership path.
func TestInvalidationPushOnGroupChange(t *testing.T) {
	w := NewWorldConfig(am.Config{DefaultCacheTTL: time.Hour})
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	h.AddResource("bob", "travel", "photo-1", []byte("pic"))
	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.Protect("bob", "travel", []core.ResourceID{"photo-1"}, ""); err != nil {
		t.Fatal(err)
	}
	p, _ := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err := w.AM.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.AM.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := w.SettleInvalidations(h.Enforcer, "bob"); err != nil {
		t.Fatal(err)
	}
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if h.Enforcer.Cache().Len() == 0 {
		t.Fatal("decision not cached")
	}
	// Bob removes alice from friends; the streamed invalidation clears the
	// cached permit.
	gen := h.Enforcer.Cache().Gen()
	if err := w.AM.RemoveGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := h.AwaitInvalidation(gen); err != nil {
		t.Fatal(err)
	}
	waitCacheLen(t, h, 0)

	resp, err := alice.Get(h.ResourceURL("photo-1"), core.ActionRead)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Fatal("alice still permitted after removal + push")
		}
	}
}

// TestNoPushWithoutOptIn: the AM never contacts a Host on its own — a Host
// that has not subscribed to the invalidation stream keeps its cached
// decisions until TTL.
func TestNoPushWithoutOptIn(t *testing.T) {
	w, h := setupWorldCfg(t, am.Config{DefaultCacheTTL: time.Hour})
	// Pairing subscribed the Host; ending that subscription leaves a Host
	// without one.
	h.Enforcer.Close()
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	policies := w.AM.ListPolicies("bob")
	pol := policies[0]
	pol.Rules = []policy.Rule{{
		Effect:   policy.EffectDeny,
		Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
	}}
	gen := h.Enforcer.Cache().Gen()
	if err := w.AM.UpdatePolicy("bob", pol); err != nil {
		t.Fatal(err)
	}
	// Cache untouched: the stale permit persists until TTL (documented
	// trade-off of pure TTL caching).
	if h.Enforcer.Cache().Len() == 0 || h.Enforcer.Cache().Gen() != gen {
		t.Fatal("cache invalidated without a subscription")
	}
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatalf("cached access should still permit within TTL: %v", err)
	}
}
