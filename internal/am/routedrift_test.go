package am

import (
	"net/http"
	"os"
	"strings"
	"testing"

	"umac/internal/core"
)

// TestRouteDrift fails when a mux-registered route is missing from
// docs/PROTOCOL.md, keeping the documented surface in lockstep with the
// real one. Every route must appear as an inline-code literal
// ("METHOD /v1/path").
func TestRouteDrift(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("read protocol doc: %v", err)
	}
	text := string(doc)

	a := New(Config{Name: "am"})
	defer a.Close()
	a.Handler()
	routes := a.Routes()
	if len(routes) == 0 {
		t.Fatal("no routes registered")
	}
	for _, rt := range routes {
		needle := rt.Method + " " + rt.Path
		if !strings.Contains(text, needle) {
			t.Errorf("docs/PROTOCOL.md is missing route %q — document it (and its error codes) before adding the endpoint", needle)
		}
	}
}

// TestRetiredSurfaceStaysRetired pins /v1 as the only API surface: the
// pre-v1 bare aliases and the POST …/revoke form of pairing revocation
// answer the mux's plain-text 404 or 405 (no handler runs, so no error
// envelope), and every registered route lives under /v1.
func TestRetiredSurfaceStaysRetired(t *testing.T) {
	f := newHTTPFixture(t)
	code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, err := f.am.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, user, method, path string
	}{
		{"GET /policies", "bob", "GET", "/policies"},
		{"POST /api/decision", "", "POST", "/api/decision"},
		{"POST /token", "", "POST", "/token"},
		{"GET /healthz", "", "GET", "/healthz"},
		{"POST /v1/pairings/{id}/revoke", "bob", "POST", "/v1/pairings/" + pr.PairingID + "/revoke"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := f.do(t, tc.user, tc.method, tc.path, struct{}{})
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status = %d, want 404 or 405", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Fatalf("content type = %q, want the mux's plain text", ct)
			}
		})
	}
	if _, ok := f.am.PairingSecret(pr.PairingID); !ok {
		t.Fatal("the retired revoke form revoked the pairing")
	}
	for _, rt := range f.am.Routes() {
		if !strings.HasPrefix(rt.Path, APIVersionPrefix+"/") {
			t.Errorf("route %s %s is outside %s", rt.Method, rt.Path, APIVersionPrefix)
		}
	}
}
