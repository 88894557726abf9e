package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/pep"
	"umac/internal/requester"
	"umac/internal/store"
)

// hostID is the one Host every owner pairs with.
const hostID core.HostID = "photos-host"

// deployment is one AM and one Host in this process: the AM serves its
// public handler on a loopback TCP listener and the Host reaches it through
// the public SDKs, exactly as separate processes would.
type deployment struct {
	dir      string
	tokenKey []byte
	st       *store.Store
	am       *am.AM
	srv      *http.Server
	amURL    string

	host    *pep.Enforcer
	hostTr  *hostTransport
	ownerTr *hostTransport // owners' and requesters' side of the wire
	owners  []*amclient.Client
	streams []*ownerStream // per owner: the Host's invalidation stream

	obtain []time.Duration // requester.ObtainToken latencies
}

// serve starts the AM handler on a fresh loopback listener.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func newBaseTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	// The load goroutines and the owner writer share one AM; keep their
	// connections alive instead of redialling past the default of two.
	t.MaxIdleConnsPerHost = 16
	return t
}

// provision builds a deployment from an empty data directory and
// provisions the population through the public APIs: Fig. 3 pairing per
// owner, the owner's invalidation stream, groups, the general policy, the
// realm (Fig. 4) and every requester's token (Fig. 5).
func provision(pop *population, seed uint64, dir string, cacheCap int, tr *tracer) (*deployment, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "am.json"))
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6b6579))
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(rng.Uint32())
	}
	d := &deployment{dir: dir, tokenKey: key, st: st}
	d.am = am.New(am.Config{Name: "bench-am", Store: st, TokenKey: key, Notifier: &am.Outbox{}})
	var h http.Handler = d.am.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	if d.srv, d.amURL, err = serve(h); err != nil {
		d.close()
		return nil, err
	}
	d.am.SetBaseURL(d.amURL)
	d.hostTr = &hostTransport{base: newBaseTransport(), tr: tr}
	d.ownerTr = &hostTransport{base: newBaseTransport(), tr: tr}
	ownerHTTP := &http.Client{Transport: d.ownerTr}
	d.host = pep.New(pep.Config{Host: hostID, Name: "photos", HTTPClient: &http.Client{Transport: d.hostTr},
		Cache: pep.NewDecisionCacheCap(cacheCap)})

	n := len(pop.owners)
	d.owners = make([]*amclient.Client, n)
	d.streams = make([]*ownerStream, n)
	obtain := make([][]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				oi := int(next.Add(1) - 1)
				if oi >= n {
					return
				}
				var err error
				obtain[oi], err = d.provisionOwner(pop, oi, ownerHTTP)
				if err != nil {
					errs[w] = fmt.Errorf("provision %s: %w", pop.owners[oi].id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, err
	}
	for _, o := range obtain {
		d.obtain = append(d.obtain, o...)
	}
	// Events published before a stream has connected are not replayed to
	// it, so no owner write may start until every stream is subscribed.
	deadline := time.Now().Add(15 * time.Second)
	for d.am.Events().Health().Subscribers[core.EventInvalidation] < n {
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("only %d of %d invalidation streams subscribed",
				d.am.Events().Health().Subscribers[core.EventInvalidation], n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, nil
}

func (d *deployment) provisionOwner(pop *population, oi int, ownerHTTP *http.Client) ([]time.Duration, error) {
	o := pop.owners[oi]
	oc := amclient.New(amclient.Config{BaseURL: d.amURL, HTTPClient: ownerHTTP, User: o.id})
	d.owners[oi] = oc
	code, err := oc.ConfirmPairing(hostID)
	if err != nil {
		return nil, fmt.Errorf("confirm pairing: %w", err)
	}
	p, err := d.host.CompletePairing(d.amURL, o.id, code)
	if err != nil {
		return nil, err
	}
	d.streams[oi] = &ownerStream{notes: make(chan streamNote, 4)}
	d.hostTr.streams.Store(p.PairingID, d.streams[oi])
	if err := d.host.StartInvalidationStream(o.id); err != nil {
		return nil, err
	}
	s := o.state.Load()
	for _, g := range []struct {
		name    string
		members []core.UserID
	}{{groupFriends, o.friends}, {groupFamily, o.family}, {groupBlocked, s.blocked}} {
		for _, u := range g.members {
			if _, err := oc.AddGroupMember(o.id, g.name, u); err != nil {
				return nil, fmt.Errorf("add %s to %s: %w", u, g.name, err)
			}
		}
	}
	o.policyID = "" // the AM assigns the ID; a previous set-up's must not be sent
	created, err := oc.CreatePolicy(o.policy(s))
	if err != nil {
		return nil, fmt.Errorf("create policy: %w", err)
	}
	o.policyID = created.ID
	if err := d.host.Protect(o.id, o.realm, nil, created.ID); err != nil {
		return nil, err
	}
	var obtain []time.Duration
	for _, ti := range o.tokens {
		t := pop.tokens[ti]
		rc := requester.New(requester.Config{ID: t.app, Subject: t.subject, HTTPClient: ownerHTTP})
		start := time.Now()
		tok, err := rc.ObtainToken(d.amURL, hostID, o.realm, pop.resources[0], core.ActionRead)
		obtain = append(obtain, time.Since(start))
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("token for %s/%s: %w", t.app, t.subject, err)
		}
		t.setToken(tok)
	}
	return obtain, nil
}

// close stops the Host's streams, the AM, its listener and its store.
func (d *deployment) close() error {
	if d.host != nil {
		d.host.Close()
	}
	if d.am != nil {
		d.am.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	for _, t := range []*hostTransport{d.hostTr, d.ownerTr} {
		if t != nil {
			t.base.CloseIdleConnections()
		}
	}
	return d.st.Close()
}

// quiesce lets the previous phase's background work finish — the AM's
// audit pipeline drains and the garbage is collected — so that work is not
// charged to the next phase.
func (d *deployment) quiesce() {
	d.am.Audit()
	runtime.GC()
}

// pairingID returns the Host's pairing for owner o.
func (d *deployment) pairingID(o *owner) string {
	p, _ := d.host.PairingFor(o.id)
	return p.PairingID
}

// hostTransport is the http.RoundTripper under the Host's (or the owners')
// HTTP client. It observes the invalidation streams for the revocation
// metric, and, in a traced run, records a span per AM call.
type hostTransport struct {
	base    *http.Transport
	tr      *tracer  // nil when untraced
	streams sync.Map // pairing ID → *ownerStream
}

func (t *hostTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/events/invalidation") {
		resp, err := t.base.RoundTrip(req)
		if err == nil {
			if s, ok := t.streams.Load(req.Header.Get(httpsig.HeaderPairing)); ok {
				resp.Body = &streamBody{ReadCloser: resp.Body, stream: s.(*ownerStream)}
			}
		}
		return resp, err
	}
	if t.tr != nil {
		return t.tr.roundTrip(t.base, req)
	}
	return t.base.RoundTrip(req)
}

// streamNote times one invalidation frame: when its last byte reached the
// Host's transport, and when the Host came back for more bytes, which it
// does only after applying the frame to its cache.
type streamNote struct{ delivered, applied time.Time }

// ownerStream carries notes from one owner's stream to the writer. Only
// the writer triggers invalidations, one write at a time, so a small buffer
// never fills.
type ownerStream struct{ notes chan streamNote }

// streamBody watches the SSE bytes the Host's stream consumer reads. The
// consumer (amclient.EventStream over bufio) reads the body only when its
// buffer is empty, so the first Read after an invalidation frame's last
// byte proves the consumer has parsed and applied that frame.
type streamBody struct {
	io.ReadCloser
	stream  *ownerStream
	frame   []byte      // bytes of the frame being received
	pending []time.Time // frames delivered, not yet known applied
}

func (b *streamBody) Read(p []byte) (int, error) {
	if len(b.pending) > 0 {
		now := time.Now()
		for _, d := range b.pending {
			select {
			case b.stream.notes <- streamNote{delivered: d, applied: now}:
			default:
			}
		}
		b.pending = b.pending[:0]
	}
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.scan(p[:n], time.Now())
	}
	return n, err
}

// scan splits the byte stream into SSE frames (blank-line terminated) and
// records each complete invalidation frame.
func (b *streamBody) scan(chunk []byte, now time.Time) {
	b.frame = append(b.frame, chunk...)
	for {
		i := strings.Index(string(b.frame), "\n\n")
		if i < 0 {
			return
		}
		if strings.Contains(string(b.frame[:i]), "event: invalidation") {
			b.pending = append(b.pending, now)
		}
		b.frame = b.frame[i+2:]
	}
}
