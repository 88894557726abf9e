package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the traced run's span recorder. Spans are kept in memory
// and written out when the run ends; nothing here runs in an untraced run.
// Three span kinds are recorded, all from the benchmark's own code:
//
//   - check: a generator's call to pep.Enforcer.Check;
//   - rtt:   the Host's (or an owner's) HTTP call, from the RoundTripper
//     entry to the response body's Close; it sends X-Request-Id;
//   - am:    the AM's public Handler(), keyed by the X-Request-Id it got.
//
// An rtt span's parent is the check span running on the same goroutine
// (the PEP calls the AM synchronously on the caller's goroutine); an am
// span's parent is the rtt span whose ID is its request ID.

type spanKind uint8

const (
	spanCheck spanKind = iota
	spanRTT
	spanAM
)

var spanKindNames = [...]string{"check", "rtt", "am"}

// Span classes: for check spans, how the PEP answered; for rtt and am
// spans, the AM route.
const (
	classHit uint8 = iota
	classMiss
	classDecide
	classWrite
	classOther
)

var classNames = [...]string{"hit", "miss", "decide", "write", "other"}

type span struct {
	kind   spanKind
	class  uint8
	id     uint64
	parent uint64
	reqID  uint64
	start  int64 // ns since the tracer's epoch
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// requestIDPrefix marks request IDs the tracer minted.
const requestIDPrefix = "e2e-"

// maxSpans bounds the span buffer (≈50 MB).
const maxSpans = 1 << 20

type tracer struct {
	epoch  time.Time
	on     atomic.Bool // tracing is on for the current slice of a phase
	nextID atomic.Uint64
	cur    sync.Map // goroutine ID → *atomic.Uint64 (the running check span)

	mu      sync.Mutex
	spans   []span
	dropped int64

	idMismatch atomic.Int64 // responses whose X-Request-Id differs from the sent one
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	room := maxSpans - len(t.spans)
	if len(s) > room {
		t.dropped += int64(len(s) - room)
		s = s[:room]
	}
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// goid returns the calling goroutine's ID, parsed from the first line of
// its stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// register gives the calling generator goroutine a slot holding its
// running check span, so rtt spans started beneath it find their parent.
func (t *tracer) register() *atomic.Uint64 {
	slot := new(atomic.Uint64)
	t.cur.Store(goid(), slot)
	return slot
}

func routeClass(r *http.Request) uint8 {
	switch {
	case strings.Contains(r.URL.Path, "/api/decision"):
		return classDecide
	case r.Method != http.MethodGet &&
		(strings.Contains(r.URL.Path, "/policies") || strings.Contains(r.URL.Path, "/groups")):
		return classWrite
	}
	return classOther
}

// roundTrip records an rtt span around one AM call and tags it with a
// fresh request ID.
func (t *tracer) roundTrip(base http.RoundTripper, req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return base.RoundTrip(req)
	}
	s := span{kind: spanRTT, class: routeClass(req), id: t.nextID.Add(1)}
	s.reqID = s.id
	if slot, ok := t.cur.Load(goid()); ok {
		s.parent = slot.(*atomic.Uint64).Load()
	}
	rid := requestIDPrefix + strconv.FormatUint(s.reqID, 10)
	r2 := req.Clone(req.Context())
	r2.Header.Set("X-Request-Id", rid)
	s.start = t.now()
	resp, err := base.RoundTrip(r2)
	if err != nil {
		s.end = t.now()
		t.add(s)
		return nil, err
	}
	if resp.Header.Get("X-Request-Id") != rid {
		t.idMismatch.Add(1)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

// spanBody ends its rtt span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// wrapHandler records an am span for every request carrying a request ID
// the tracer minted.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if !strings.HasPrefix(rid, requestIDPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(rid[len(requestIDPrefix):], 10, 64)
		s := span{kind: spanAM, class: routeClass(r), id: t.nextID.Add(1), parent: id, reqID: id}
		s.start = t.now()
		h.ServeHTTP(w, r)
		s.end = t.now()
		t.add(s)
	})
}

// analysis is what the traced run derives from its spans.
type analysis struct {
	rttDecide   []int64 // rtt span durations of decision queries
	rttSelf     []int64 // rtt − am handler, per decision query
	amDecide    []int64 // am handler durations of decision queries
	amWrite     []int64 // am handler durations of owner writes
	missSelf    []int64 // check − its rtt children, per PEP miss
	amSpans     int
	amLinked    int   // am spans whose parent rtt span exists, shares the request ID and encloses it
	idMismatch  int64 // responses whose X-Request-Id differs from the sent one
	droppedSpan int64 // spans not kept because the buffer was full
}

func (t *tracer) analyze() analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := analysis{droppedSpan: t.dropped, idMismatch: t.idMismatch.Load()}
	rtt := make(map[uint64]span)
	amOf := make(map[uint64]span) // request ID → am span
	rttDur := make(map[uint64]int64)
	for _, s := range t.spans {
		switch s.kind {
		case spanRTT:
			rtt[s.id] = s
			if s.parent != 0 {
				rttDur[s.parent] += s.dur()
			}
		case spanAM:
			amOf[s.reqID] = s
		}
	}
	for _, s := range t.spans {
		switch s.kind {
		case spanAM:
			a.amSpans++
			p, ok := rtt[s.parent]
			if ok && p.reqID == s.reqID && p.start <= s.start && s.end <= p.end {
				a.amLinked++
			}
			switch s.class {
			case classDecide:
				a.amDecide = append(a.amDecide, s.dur())
			case classWrite:
				a.amWrite = append(a.amWrite, s.dur())
			}
		case spanRTT:
			if s.class == classDecide {
				a.rttDecide = append(a.rttDecide, s.dur())
				if h, ok := amOf[s.reqID]; ok {
					a.rttSelf = append(a.rttSelf, s.dur()-h.dur())
				}
			}
		case spanCheck:
			if d, ok := rttDur[s.id]; ok && s.class == classMiss {
				a.missSelf = append(a.missSelf, s.dur()-d)
			}
		}
	}
	return a
}

// write saves every span as one tab-separated line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tclass\tid\tparent\trequest_id\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			spanKindNames[s.kind], classNames[s.class], s.id, s.parent, s.reqID, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
