package am

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/identity"
	"umac/internal/policy"
)

// These tests drive the GET /v1/events SSE family end to end over real
// HTTP connections: authentication per audience, filter scoping,
// Last-Event-ID resume with no loss and no duplication, gap→resync when
// the replay window rolled past the cursor, heartbeats, and the
// /v1/metrics gauges.

const eventsTestSecret = "events-test-secret"

// newEventsFixture is newHTTPFixture with a tunable Config (events sizing,
// replication secret for the operator bearer).
func newEventsFixture(t *testing.T, cfg Config) *httpFixture {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "am"
	}
	if cfg.Notifier == nil {
		cfg.Notifier = &Outbox{}
	}
	a := New(cfg)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	a.SetBaseURL(srv.URL)
	return &httpFixture{am: a, srv: srv}
}

// sseConn is one open SSE subscription with a parse helper.
type sseConn struct {
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

// openSSE connects to an event endpoint and consumes the opening comment
// frame, so the subscription is guaranteed registered before the caller
// publishes. The connection self-destructs after 15s so a missing event
// fails the test instead of hanging it.
func openSSE(t *testing.T, url string, hdr http.Header) *sseConn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	c := &sseConn{resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	if _, _, _, comment := c.readFrame(t); !comment {
		t.Fatal("first frame is not the opening comment")
	}
	return c
}

func (c *sseConn) close() {
	c.cancel()
	c.resp.Body.Close()
}

// readFrame reads one SSE frame (event or comment) up to its blank line.
func (c *sseConn) readFrame(t *testing.T) (id, event, data string, comment bool) {
	t.Helper()
	var sawAny bool
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if sawAny {
				return
			}
			continue
		}
		sawAny = true
		switch {
		case strings.HasPrefix(line, ":"):
			comment = true
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// nextEvent reads frames until the next real event, skipping heartbeats,
// and checks the frame's event name matches the payload type.
func (c *sseConn) nextEvent(t *testing.T) core.Event {
	t.Helper()
	for {
		_, event, data, comment := c.readFrame(t)
		if comment {
			continue
		}
		var e core.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			t.Fatalf("decode event %q: %v", data, err)
		}
		if string(e.Type) != event {
			t.Fatalf("frame event %q disagrees with payload type %q", event, e.Type)
		}
		return e
	}
}

func TestEventsAuthAndValidation(t *testing.T) {
	f := newHTTPFixture(t)
	cases := []struct {
		name, path, user string
		want             int
	}{
		{"unauthenticated", "/v1/events", "", 401},
		{"unknown type", "/v1/events?types=bogus", "bob", 400},
		{"bad cursor", "/v1/events?last_event_id=nope", "bob", 400},
		{"negative cursor", "/v1/events?last_event_id=-4", "bob", 400},
		{"foreign owner", "/v1/events?owner=carol", "bob", 403},
		{"consent without ticket", "/v1/events/consent", "", 400},
		{"invalidation unsigned", "/v1/events/invalidation", "", 401},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodGet, f.srv.URL+tc.path, nil)
		if tc.user != "" {
			req.Header.Set(identity.DefaultUserHeader, tc.user)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestEventsOwnerScoping: a session subscriber sees their own events plus
// node-wide signals, never another owner's.
func TestEventsOwnerScoping(t *testing.T) {
	f := newHTTPFixture(t)
	hdr := http.Header{}
	hdr.Set(identity.DefaultUserHeader, "bob")
	c := openSSE(t, f.srv.URL+"/v1/events", hdr)

	broker := f.am.Events()
	broker.Publish(core.Event{Type: core.EventInvalidation, Owner: "carol",
		Invalidation: &core.InvalidationPush{Owner: "carol"}})
	broker.Publish(core.Event{Type: core.EventInvalidation, Owner: "bob",
		Invalidation: &core.InvalidationPush{Owner: "bob", Realms: []core.RealmID{"travel"}}})
	broker.Publish(core.Event{Type: core.EventReplication, Signal: core.SignalPromoted})

	e := c.nextEvent(t)
	if e.Type != core.EventInvalidation || e.Owner != "bob" {
		t.Fatalf("first event = %+v, want bob's invalidation", e)
	}
	if e.Invalidation == nil || len(e.Invalidation.Realms) != 1 {
		t.Fatalf("payload = %+v", e.Invalidation)
	}
	e = c.nextEvent(t)
	if e.Type != core.EventReplication || e.Signal != core.SignalPromoted {
		t.Fatalf("second event = %+v, want node-wide replication signal", e)
	}
}

// TestEventsReplBearerUnfiltered: the replication secret grants the
// node-wide operator stream across all owners.
func TestEventsReplBearerUnfiltered(t *testing.T) {
	f := newEventsFixture(t, Config{
		Replication: ReplicationConfig{Role: RolePrimary, Secret: eventsTestSecret},
	})
	hdr := http.Header{}
	hdr.Set("Authorization", "Bearer "+eventsTestSecret)
	c := openSSE(t, f.am.BaseURL()+"/v1/events", hdr)

	f.am.Events().Publish(core.Event{Type: core.EventInvalidation, Owner: "carol",
		Invalidation: &core.InvalidationPush{Owner: "carol"}})
	if e := c.nextEvent(t); e.Owner != "carol" {
		t.Fatalf("event = %+v", e)
	}

	// A wrong bearer is not a session either: 401.
	req, _ := http.NewRequest(http.MethodGet, f.am.BaseURL()+"/v1/events", nil)
	req.Header.Set("Authorization", "Bearer nope")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("wrong bearer status = %d", resp.StatusCode)
	}
}

// TestEventsConsentStreamEndToEnd proves the consent producer: a pending
// ticket's resolution arrives on /v1/events/consent with the minted token,
// without the requester ever polling.
func TestEventsConsentStreamEndToEnd(t *testing.T) {
	f := newHTTPFixture(t)
	code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, _ := f.am.ExchangeCode(code, "webpics")
	if _, err := f.am.RegisterRealm(pr.PairingID, core.ProtectRequest{Realm: "private"}); err != nil {
		t.Fatal(err)
	}
	p, _ := f.am.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireConsent}},
		}},
	})
	if err := f.am.LinkGeneral("bob", "private", p.ID); err != nil {
		t.Fatal(err)
	}
	resp := f.do(t, "", http.MethodPost, "/v1/token", core.TokenRequest{
		Requester: "editor", Subject: "evelyn", Host: "webpics",
		Realm: "private", Resource: "diary", Action: core.ActionRead,
	})
	tr := decodeBody[core.TokenResponse](t, resp)
	if tr.PendingConsent == "" {
		t.Fatalf("resp = %+v", tr)
	}

	c := openSSE(t, f.srv.URL+"/v1/events/consent?ticket="+tr.PendingConsent, nil)
	// Another ticket's resolution must not leak into this stream: publish a
	// decoy first.
	f.am.Events().Publish(core.Event{Type: core.EventConsent, Owner: "bob", Ticket: "other",
		Consent: &core.ConsentStatus{Ticket: "other", Resolved: true}})
	f.do(t, "bob", http.MethodPost, "/v1/consents/"+tr.PendingConsent, map[string]bool{"approve": true}).Body.Close()

	e := c.nextEvent(t)
	if e.Type != core.EventConsent || e.Ticket != tr.PendingConsent {
		t.Fatalf("event = %+v", e)
	}
	st := e.Consent
	if st == nil || !st.Resolved || !st.Approved || st.Token == "" {
		t.Fatalf("consent payload = %+v", st)
	}
}

// TestEventsInvalidationSignedStream proves the invalidation producer over
// the pairing-signed endpoint: a policy write reaches the subscribed Host
// as a scoped invalidation event.
func TestEventsInvalidationSignedStream(t *testing.T) {
	f := newHTTPFixture(t)
	code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, err := f.am.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.am.RegisterRealm(pr.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		t.Fatal(err)
	}
	p, err := f.am.CreatePolicy("bob", simplePolicy("bob"))
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, f.srv.URL+"/v1/events/invalidation", nil)
	if err := httpsig.Sign(req, pr.PairingID, pr.Secret); err != nil {
		t.Fatal(err)
	}
	c := openSSE(t, f.srv.URL+"/v1/events/invalidation", req.Header)

	// Linking the policy to the realm is a PAP mutation: it must reach the
	// subscribed Host as a realm-scoped invalidation.
	if err := f.am.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	e := c.nextEvent(t)
	if e.Type != core.EventInvalidation || e.Owner != "bob" || e.Invalidation == nil {
		t.Fatalf("event = %+v", e)
	}
	if len(e.Invalidation.Realms) != 1 || e.Invalidation.Realms[0] != "travel" {
		t.Fatalf("push scope = %+v", e.Invalidation)
	}
}

// TestEventsResumeNoLossNoDup is the reconnect contract: events published
// while the subscriber was away replay exactly once from Last-Event-ID.
func TestEventsResumeNoLossNoDup(t *testing.T) {
	f := newEventsFixture(t, Config{
		Replication: ReplicationConfig{Role: RolePrimary, Secret: eventsTestSecret},
	})
	hdr := http.Header{}
	hdr.Set("Authorization", "Bearer "+eventsTestSecret)
	broker := f.am.Events()

	c := openSSE(t, f.am.BaseURL()+"/v1/events", hdr)
	for _, r := range []string{"a", "b"} {
		broker.Publish(core.Event{Type: core.EventInvalidation, Owner: "bob",
			Invalidation: &core.InvalidationPush{Owner: "bob", Realms: []core.RealmID{core.RealmID(r)}}})
	}
	var cursor int64
	for _, want := range []string{"a", "b"} {
		e := c.nextEvent(t)
		if e.Invalidation.Realms[0] != core.RealmID(want) {
			t.Fatalf("got %+v, want realm %s", e, want)
		}
		cursor = e.Seq
	}
	// Kill the connection mid-stream, then publish while nobody listens.
	c.close()
	for _, r := range []string{"c", "d", "e"} {
		broker.Publish(core.Event{Type: core.EventInvalidation, Owner: "bob",
			Invalidation: &core.InvalidationPush{Owner: "bob", Realms: []core.RealmID{core.RealmID(r)}}})
	}
	// Reconnect with Last-Event-ID: the missed events replay in order,
	// nothing duplicated, nothing resynced.
	hdr.Set("Last-Event-ID", "2")
	if cursor != 2 {
		t.Fatalf("cursor = %d, want 2", cursor)
	}
	c2 := openSSE(t, f.am.BaseURL()+"/v1/events", hdr)
	for _, want := range []string{"c", "d", "e"} {
		e := c2.nextEvent(t)
		if e.Type == core.EventResync {
			t.Fatalf("unexpected resync: %+v", e)
		}
		if got := e.Invalidation.Realms[0]; got != core.RealmID(want) {
			t.Fatalf("replayed realm = %s, want %s", got, want)
		}
	}
	// And the stream stays live past the replay.
	broker.Publish(core.Event{Type: core.EventInvalidation, Owner: "bob",
		Invalidation: &core.InvalidationPush{Owner: "bob", Realms: []core.RealmID{"f"}}})
	if e := c2.nextEvent(t); e.Invalidation.Realms[0] != "f" {
		t.Fatalf("live event = %+v", e)
	}
}

// TestEventsResumePastWindowResync: a cursor older than the replay window
// yields an explicit resync frame carrying the stream head, never a silent
// hole.
func TestEventsResumePastWindowResync(t *testing.T) {
	f := newEventsFixture(t, Config{
		Events:      EventsConfig{ReplayWindow: 4},
		Replication: ReplicationConfig{Role: RolePrimary, Secret: eventsTestSecret},
	})
	broker := f.am.Events()
	for i := 0; i < 10; i++ {
		broker.Publish(core.Event{Type: core.EventReplication, Signal: core.SignalLag})
	}
	hdr := http.Header{}
	hdr.Set("Authorization", "Bearer "+eventsTestSecret)
	hdr.Set("Last-Event-ID", "1")
	c := openSSE(t, f.am.BaseURL()+"/v1/events", hdr)
	e := c.nextEvent(t)
	if e.Type != core.EventResync {
		t.Fatalf("first frame = %+v, want resync", e)
	}
	if e.Seq != broker.LastSeq() {
		t.Fatalf("resync seq = %d, want head %d", e.Seq, broker.LastSeq())
	}
	// The stream skips straight to live after the marker (replaying the
	// retained tail would hide the hole): the next publish arrives.
	broker.Publish(core.Event{Type: core.EventReplication, Signal: core.SignalConnected})
	live := c.nextEvent(t)
	if live.Type != core.EventReplication || live.Signal != core.SignalConnected {
		t.Fatalf("live event = %+v", live)
	}
}

// TestEventsHeartbeat: an idle stream stays warm with comment frames.
func TestEventsHeartbeat(t *testing.T) {
	f := newEventsFixture(t, Config{
		Events:      EventsConfig{Heartbeat: 30 * time.Millisecond},
		Replication: ReplicationConfig{Role: RolePrimary, Secret: eventsTestSecret},
	})
	hdr := http.Header{}
	hdr.Set("Authorization", "Bearer "+eventsTestSecret)
	c := openSSE(t, f.am.BaseURL()+"/v1/events", hdr)
	if _, _, _, comment := c.readFrame(t); !comment {
		t.Fatal("expected a heartbeat comment on an idle stream")
	}
}

// TestEventsStreamEndsWhenBrokerCloses: closing the broker (AM shutdown)
// ends every open stream at once, instead of leaving its handler writing
// heartbeats in a loop that keeps the connection, and the server, busy.
func TestEventsStreamEndsWhenBrokerCloses(t *testing.T) {
	f := newEventsFixture(t, Config{
		Replication: ReplicationConfig{Role: RolePrimary, Secret: eventsTestSecret},
	})
	hdr := http.Header{}
	hdr.Set("Authorization", "Bearer "+eventsTestSecret)
	c := openSSE(t, f.am.BaseURL()+"/v1/events", hdr)
	f.am.Events().Close()
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, c.br)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream ended with %v, want a clean end", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open 5s after the broker closed")
	}
}

// TestEventsMetricsGauges: the event plane reports through /v1/metrics.
func TestEventsMetricsGauges(t *testing.T) {
	f := newHTTPFixture(t)
	hdr := http.Header{}
	hdr.Set(identity.DefaultUserHeader, "bob")
	openSSE(t, f.srv.URL+"/v1/events", hdr)

	f.am.Events().Publish(core.Event{Type: core.EventInvalidation, Owner: "bob",
		Invalidation: &core.InvalidationPush{Owner: "bob"}})

	resp := f.do(t, "", http.MethodGet, "/v1/metrics", nil)
	body := decodeBody[struct {
		Events *core.EventsHealth `json:"events"`
	}](t, resp)
	if body.Events == nil {
		t.Fatal("metrics missing events section")
	}
	if body.Events.Published < 1 || body.Events.LastSeq < 1 {
		t.Fatalf("events health = %+v", body.Events)
	}
	total := 0
	for _, n := range body.Events.Subscribers {
		total += n
	}
	if total < 1 {
		t.Fatalf("subscribers = %+v", body.Events.Subscribers)
	}
}
