package pep

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
)

// This file is the PEP's consumer of the AM's event control plane: a
// subscription to GET /v1/events/invalidation (signed with the pairing
// channel, like every Host→AM call) that applies scoped decision-cache
// evictions the moment a policy changes, without the AM ever dialing the
// Host. The cache TTL remains the correctness backstop throughout:
// losing the stream can only delay freshness, never grant stale access
// beyond the TTL.

// DefaultStreamRetry is how long an invalidation subscription waits after
// the stream failed persistently (ErrStreamFailed) before resubscribing.
const DefaultStreamRetry = 15 * time.Second

// invalidationSub is one owner's running invalidation subscription.
type invalidationSub struct {
	owner     core.UserID // traced when the AM rejects the subscription
	pairingID string
	cancel    context.CancelFunc
	ready     chan struct{} // closed when the first subscription attempt ends
	err       error         // that attempt's outcome; read after ready
}

// StartInvalidationStream subscribes the enforcer to owner's AM
// invalidation events and applies them to the decision cache until Close
// or Unpair. It returns once the AM has registered the subscription, so
// every policy change made afterwards reaches the cache, or with the
// error that kept the first attempt from subscribing (the subscription
// keeps retrying in the background). HandlePairCallback starts it for
// every owner it pairs; a call for an owner whose subscription already
// runs on the current pairing only waits for that first attempt, so each
// owner holds one subscription.
//
// A stream that cannot reach the AM leaves the cache alone: while the AM
// is down no policy can change, cached decisions keep serving until their
// TTL, and on reconnect the cursor replays the missed evictions (or a
// resync drops the cache). Only a subscription the AM rejects outright —
// a revoked pairing, say — drops the cache, once per outage, since the
// evictions it carried can no longer arrive. Either way the subscription
// retries every DefaultStreamRetry.
func (e *Enforcer) StartInvalidationStream(owner core.UserID) error {
	e.mu.Lock()
	if e.streamCtx.Err() != nil {
		e.mu.Unlock()
		return fmt.Errorf("%w: enforcer closed", amclient.ErrStreamFailed)
	}
	p, paired := e.pairings[owner]
	sub := e.streams[owner]
	if paired && (sub == nil || sub.pairingID != p.PairingID) {
		if sub != nil {
			sub.cancel() // re-paired: the old credentials may be revoked
		}
		ctx, cancel := context.WithCancel(e.streamCtx)
		sub = &invalidationSub{owner: owner, pairingID: p.PairingID, cancel: cancel, ready: make(chan struct{})}
		e.streams[owner] = sub
		stream := e.amFor(p).Stream(amclient.StreamConfig{Path: "/events/invalidation"})
		e.streamWG.Add(1)
		go e.followInvalidations(ctx, sub, stream)
	}
	e.mu.Unlock()
	if !paired {
		return core.ErrNotPaired
	}
	<-sub.ready
	return sub.err
}

// followInvalidations runs one owner's subscription: it applies events
// while the stream is up and retries while it is down. An outage drops
// the cache only when the AM rejects the subscription, and then once, not
// on every failed retry: a revoked pairing is rejected forever, and
// dropping on each retry would empty every owner's cached decisions each
// retry period.
func (e *Enforcer) followInvalidations(ctx context.Context, sub *invalidationSub, stream *amclient.EventStream) {
	defer e.streamWG.Done()
	defer stream.Close()
	err := stream.Connect(ctx)
	sub.err = err
	close(sub.ready)
	for {
		for err == nil {
			var ev core.Event
			if ev, err = stream.Next(ctx); err == nil {
				e.applyEvent(ev)
			}
		}
		if ctx.Err() != nil {
			return
		}
		e.trace(core.PhaseObtainingDecision, "host:"+string(e.host), "am",
			"invalidation-stream-down", err.Error())
		dropped := false
		for err != nil {
			if !dropped && rejected(err) {
				e.cache.Invalidate()
				e.trace(core.PhaseObtainingDecision, "am", "host:"+string(e.host),
					"cache-invalidated", "stream rejected for "+string(sub.owner))
				dropped = true
			}
			t := time.NewTimer(e.streamRetry)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
			err = stream.Connect(ctx)
		}
	}
}

// rejected reports whether the AM answered a subscription attempt with a
// client error (4xx other than 429): the AM is up and refuses this
// subscription, as opposed to being unreachable or overloaded.
func rejected(err error) bool {
	var ae *core.APIError
	return errors.As(err, &ae) && ae.Status >= 400 && ae.Status < 500 &&
		ae.Status != http.StatusTooManyRequests
}

// applyEvent applies one stream event to the decision cache (Section
// V.B.5): scoped eviction when the event names an owner and the
// realms/resources a policy change affected, so unrelated cached
// decisions keep serving locally; full drop on anything doubtful (resync
// markers, unscoped payloads) — when in doubt, never leave a stale permit
// behind.
func (e *Enforcer) applyEvent(ev core.Event) {
	switch ev.Type {
	case core.EventResync:
		// Events were lost between our cursor and the stream head: any of
		// them could have been an eviction we needed.
		e.cache.Invalidate()
		e.trace(core.PhaseObtainingDecision, "am", "host:"+string(e.host),
			"cache-invalidated", "stream resync")
	case core.EventInvalidation:
		push := ev.Invalidation
		if push == nil || push.Owner == "" {
			e.cache.Invalidate()
			e.trace(core.PhaseObtainingDecision, "am", "host:"+string(e.host),
				"cache-invalidated", "stream (unscoped)")
			return
		}
		n := e.cache.InvalidateScope(Scope{
			Owner:     push.Owner,
			Realms:    push.Realms,
			Resources: push.Resources,
		})
		e.trace(core.PhaseObtainingDecision, "am", "host:"+string(e.host),
			"cache-invalidated", fmt.Sprintf("stream owner=%s realms=%d resources=%d evicted=%d",
				push.Owner, len(push.Realms), len(push.Resources), n))
	}
}
