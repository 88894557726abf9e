// Package sim wires complete UMAC deployments in-process: an Authorization
// Manager behind an httptest server, any number of protected Hosts, user
// agents that drive the browser redirect legs, and workload generators for
// the benchmark harness.
//
// The paper's prototype ran on Google App Engine with real browsers; this
// package is the laptop-scale substitute that exercises the identical HTTP
// flows (see DESIGN.md §4).
package sim

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/identity"
	"umac/internal/pep"
	"umac/internal/webutil"
)

// World is a running in-process deployment.
type World struct {
	AM       *am.AM
	AMServer *httptest.Server
	Outbox   *am.Outbox
	Tracer   *core.Tracer

	amRequests atomic.Int64

	mu    sync.Mutex
	hosts map[core.HostID]*SimpleHost
}

// NewWorld starts an AM with an outbox notifier and shared tracer.
func NewWorld() *World { return NewWorldConfig(am.Config{}) }

// NewWorldConfig starts a world with a customized AM configuration
// (e.g. a short token TTL for expiry tests). Name, Notifier, Tracer and
// Auth receive the standard defaults when unset.
func NewWorldConfig(cfg am.Config) *World {
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = &core.Tracer{}
		cfg.Tracer = tracer
	}
	outbox, _ := cfg.Notifier.(*am.Outbox)
	if cfg.Notifier == nil {
		outbox = &am.Outbox{}
		cfg.Notifier = outbox
	}
	if cfg.Name == "" {
		cfg.Name = "am"
	}
	if cfg.Auth == nil {
		cfg.Auth = identity.HeaderAuth{}
	}
	a := am.New(cfg)
	w := &World{
		AM:     a,
		Outbox: outbox,
		Tracer: tracer,
		hosts:  make(map[core.HostID]*SimpleHost),
	}
	// Count every HTTP request reaching the AM: the round-trip metric of
	// experiments E9/E10.
	inner := a.Handler()
	w.AMServer = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.amRequests.Add(1)
		inner.ServeHTTP(rw, r)
	}))
	a.SetBaseURL(w.AMServer.URL)
	return w
}

// Client returns a typed v1 API client acting as user — the programmatic
// equivalent of that user's browser session against the world's AM.
func (w *World) Client(user core.UserID) *amclient.Client {
	return amclient.New(amclient.Config{BaseURL: w.AMServer.URL, User: user})
}

// AMRequests returns the number of HTTP requests the AM has served.
func (w *World) AMRequests() int64 { return w.amRequests.Load() }

// ResetAMRequests zeroes the AM request counter.
func (w *World) ResetAMRequests() { w.amRequests.Store(0) }

// Close shuts down every server in the world.
func (w *World) Close() {
	w.mu.Lock()
	hosts := make([]*SimpleHost, 0, len(w.hosts))
	for _, h := range w.hosts {
		hosts = append(hosts, h)
	}
	w.mu.Unlock()
	for _, h := range hosts {
		h.Enforcer.Close() // severs invalidation streams parked on the AM
		h.Server.Close()
	}
	w.StopAM()
	w.AM.Close()
}

// StopAM takes the world's AM off the network the way a crashed AM process
// would. Closing the broker first ends every event stream it serves —
// including those of enforcers outside the world, such as the prototype
// apps' — which httptest's Close alone would wait on forever. Subscribers
// see their streams fail and fall back to the decision TTL.
func (w *World) StopAM() {
	w.AM.Events().Close()
	w.AMServer.Close()
}

// Host returns a previously added host by ID.
func (w *World) Host(id core.HostID) *SimpleHost {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hosts[id]
}

// SimpleHost is a minimal protected Host application: an in-memory resource
// tree with GET/PUT access guarded by a pep.Enforcer. The prototype apps in
// internal/apps are full applications; SimpleHost is the protocol-focused
// fixture for tests and benchmarks.
type SimpleHost struct {
	ID       core.HostID
	Enforcer *pep.Enforcer
	Server   *httptest.Server

	mu        sync.RWMutex
	resources map[core.ResourceID]*simResource
}

type simResource struct {
	owner   core.UserID
	realm   core.RealmID
	content []byte
}

// AddHost creates and starts a SimpleHost registered in the world.
func (w *World) AddHost(id core.HostID) *SimpleHost {
	h := &SimpleHost{
		ID:        id,
		resources: make(map[core.ResourceID]*simResource),
	}
	h.Enforcer = pep.New(pep.Config{Host: id, Name: string(id), Tracer: w.Tracer})
	mux := http.NewServeMux()
	mux.HandleFunc("/umac/pair/callback", h.Enforcer.HandlePairCallback)
	mux.HandleFunc("GET /res/{id...}", h.handleGet)
	mux.HandleFunc("PUT /res/{id...}", h.handlePut)
	h.Server = httptest.NewServer(mux)
	h.Enforcer.SetBaseURL(h.Server.URL)
	w.mu.Lock()
	w.hosts[id] = h
	w.mu.Unlock()
	return h
}

// settleOwner scopes the sentinel entry SettleInvalidations plants;
// no real owner ID carries a NUL byte, so no policy change evicts it.
const settleOwner core.UserID = "\x00settle"

// SettleInvalidations waits until e's invalidation stream for owner is
// registered at the AM (owner must already be paired with e; pairing
// through the callback starts the stream in the background) and has
// applied every invalidation the AM published before the call. Call it
// between setup writes and the first cache fill whose fate matters: a
// setup eviction landing after the fill would evict it, or drop it
// through the generation guard.
func (w *World) SettleInvalidations(e *pep.Enforcer, owner core.UserID) error {
	if err := e.StartInvalidationStream(owner); err != nil {
		return fmt.Errorf("sim: %s's invalidation stream for %s: %w", e.Host(), owner, err)
	}
	// The stream applies events in order, so once a marker published now
	// has been applied, every earlier event has been too. The marker rides
	// owner's stream but names settleOwner, evicting only the sentinel.
	cache := e.Cache()
	const sentinel = "sim-settle"
	for {
		cache.PutScopedAt(cache.Gen(), sentinel, pep.EntryScope{Owner: settleOwner}, true, 60)
		if _, ok := cache.Get(sentinel); ok {
			break
		}
	}
	w.AM.Events().Publish(core.Event{Type: core.EventInvalidation, Owner: owner,
		Invalidation: &core.InvalidationPush{Owner: settleOwner}})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := cache.Get(sentinel); !ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: %s never applied the invalidations published for %s", e.Host(), owner)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// AwaitInvalidation waits until h's decision cache has applied an
// invalidation after generation gen (captured with Cache().Gen() before
// the mutation). The generation moves before the eviction walk, so callers
// asserting on evicted entries still poll Cache().Len().
func (h *SimpleHost) AwaitInvalidation(gen uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for h.Enforcer.Cache().Gen() == gen {
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: %s applied no invalidation after generation %d", h.ID, gen)
		}
		time.Sleep(50 * time.Microsecond) // fine-grained: benchmarks wait here
	}
	return nil
}

// AddResource stores a resource owned by owner in the given realm.
func (h *SimpleHost) AddResource(owner core.UserID, realm core.RealmID, id core.ResourceID, content []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.resources[id] = &simResource{owner: owner, realm: realm, content: append([]byte(nil), content...)}
}

// ResourceURL returns the resource's URL on this host.
func (h *SimpleHost) ResourceURL(id core.ResourceID) string {
	return h.Server.URL + "/res/" + string(id)
}

func (h *SimpleHost) lookup(id core.ResourceID) (*simResource, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r, ok := h.resources[id]
	return r, ok
}

func (h *SimpleHost) handleGet(w http.ResponseWriter, r *http.Request) {
	id := core.ResourceID(r.PathValue("id"))
	res, ok := h.lookup(id)
	if !ok {
		webutil.WriteErrorf(w, http.StatusNotFound, "no such resource %s", id)
		return
	}
	if !h.Enforcer.Require(w, r, res.owner, res.realm, id, core.ActionRead) {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(res.content)
}

func (h *SimpleHost) handlePut(w http.ResponseWriter, r *http.Request) {
	id := core.ResourceID(r.PathValue("id"))
	res, ok := h.lookup(id)
	if !ok {
		webutil.WriteErrorf(w, http.StatusNotFound, "no such resource %s", id)
		return
	}
	if !h.Enforcer.Require(w, r, res.owner, res.realm, id, core.ActionWrite) {
		return
	}
	body := make([]byte, 0, 1024)
	buf := make([]byte, 1024)
	for {
		n, err := r.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	h.mu.Lock()
	h.resources[id].content = body
	h.mu.Unlock()
	webutil.WriteJSON(w, http.StatusOK, map[string]int{"stored": len(body)})
}

// UserAgent simulates a user's browser: it authenticates to the AM via the
// identity header and follows redirects, driving the Fig. 3 and Fig. 4
// browser legs.
type UserAgent struct {
	User   core.UserID
	Client *http.Client
}

// NewUserAgent returns a browser for the given user.
func NewUserAgent(user core.UserID) *UserAgent {
	return &UserAgent{
		User: user,
		Client: &http.Client{
			Transport: &headerInjector{user: string(user), base: http.DefaultTransport},
		},
	}
}

// headerInjector adds the simulated-authentication header to every request
// (the user is "logged in everywhere").
type headerInjector struct {
	user string
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (h *headerInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	clone := req.Clone(req.Context())
	clone.Header.Set(identity.DefaultUserHeader, h.user)
	return h.base.RoundTrip(clone)
}

// Visit GETs a URL (following redirects) and requires a 2xx outcome.
func (ua *UserAgent) Visit(rawURL string) error {
	resp, err := ua.Client.Get(rawURL)
	if err != nil {
		return fmt.Errorf("sim: visit %s: %w", rawURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("sim: visit %s: status %d", rawURL, resp.StatusCode)
	}
	return nil
}

// PairHost drives the complete Fig. 3 flow: the user configures their AM at
// the Host, the browser is bounced Host→AM→Host, and the Host exchanges the
// one-time code for the channel secret.
func (ua *UserAgent) PairHost(h *SimpleHost, amURL string) error {
	return ua.PairEnforcer(h.Enforcer, amURL)
}

// PairEnforcer drives Fig. 3 for any pep.Enforcer-based application (the
// prototype apps use this). It returns once the invalidation stream the
// pairing callback starts in the background is registered at the AM, so
// the setup that follows (counted AM round-trips, cache fills) cannot
// race that subscription.
func (ua *UserAgent) PairEnforcer(e *pep.Enforcer, amURL string) error {
	confirmURL := e.BeginPairing(amURL, ua.User)
	if err := ua.Visit(confirmURL); err != nil {
		return fmt.Errorf("sim: pairing: %w", err)
	}
	if !e.Delegated(ua.User) {
		return fmt.Errorf("sim: pairing did not complete for %s at %s", ua.User, e.Host())
	}
	if err := e.StartInvalidationStream(ua.User); err != nil {
		return fmt.Errorf("sim: %s's invalidation stream for %s: %w", e.Host(), ua.User, err)
	}
	return nil
}

// AMURL trims a trailing slash for URL joining.
func AMURL(base string) string { return strings.TrimSuffix(base, "/") }
