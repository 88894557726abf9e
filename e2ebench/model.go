package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"sync/atomic"

	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/policy"
)

// This file is the generator's own model of the population: who owns what,
// which groups hold whom, what each owner's general policy says, and which
// requester holds which token. The model is the correctness oracle: every
// Check verdict the Host returns is compared with verdict() below, which is
// written independently of internal/policy.

// Population sizes. The key space (tokens × resources × actions) must stay
// at least ten times pep.DefaultCacheCapacity so decide_miss really misses.
type sizes struct {
	owners         int
	users          int
	apps           int
	resources      int
	tokensPerOwner int
	friends        int
	family         int
	blocked        int
	cache          int // the Host's decision-cache capacity; 0 means pep's default
}

func (s sizes) cacheCapacity() int {
	if s.cache == 0 {
		return pep.DefaultCacheCapacity
	}
	return s.cache
}

var fullSizes = sizes{
	owners:         200,
	users:          400,
	apps:           4,
	resources:      64,
	tokensPerOwner: 32,
	friends:        10,
	family:         5,
	blocked:        2,
}

// actions checked per (token, resource).
var actions = [2]core.Action{core.ActionRead, core.ActionWrite}

// Group names in every owner's directory.
const (
	groupFriends = "friends"
	groupFamily  = "family"
	groupBlocked = "blocked"
)

// ownerState is the part of an owner's configuration that owner writes
// change. Values are immutable: a write builds a new one.
type ownerState struct {
	blocked      []core.UserID // sorted
	friendsWrite bool          // friends may write as well as read
}

func (s *ownerState) isBlocked(u core.UserID) bool {
	_, ok := slices.BinarySearch(s.blocked, u)
	return ok
}

// withBlockedToggled returns a copy with u added to or removed from the
// blocked group, and whether u is now blocked.
func (s *ownerState) withBlockedToggled(u core.UserID) (*ownerState, bool) {
	n := &ownerState{friendsWrite: s.friendsWrite}
	i, found := slices.BinarySearch(s.blocked, u)
	if found {
		n.blocked = slices.Delete(slices.Clone(s.blocked), i, i+1)
	} else {
		n.blocked = slices.Insert(slices.Clone(s.blocked), i, u)
	}
	return n, !found
}

// owner is one resource owner: one realm at the Host, one general policy,
// three groups, and the tokens requesters hold for the realm.
type owner struct {
	id       core.UserID
	realm    core.RealmID
	policyID core.PolicyID // assigned by the AM at set-up
	vip      core.UserID   // permitted read and write by name
	denyW    core.UserID   // denied write by name (a family member)
	friends  []core.UserID // sorted
	family   []core.UserID // sorted
	tokens   []int         // indexes into population.tokens

	initial *ownerState // what each set-up provisions
	state   atomic.Pointer[ownerState]
	pending atomic.Pointer[ownerState] // non-nil while a write is in flight
}

func has(sorted []core.UserID, u core.UserID) bool {
	_, ok := slices.BinarySearch(sorted, u)
	return ok
}

// verdict is the oracle: the decision the owner's general policy gives
// subject u for action a under state s (deny-overrides: any applicable deny
// wins, otherwise any permit, otherwise deny).
func (o *owner) verdict(s *ownerState, u core.UserID, a core.Action) bool {
	if s.isBlocked(u) || (a == core.ActionWrite && u == o.denyW) {
		return false
	}
	if u == o.vip || has(o.family, u) {
		return true
	}
	return has(o.friends, u) && (a == core.ActionRead || s.friendsWrite)
}

// policy renders the owner's general policy for state s, as the owner
// stores it at the AM.
func (o *owner) policy(s *ownerState) policy.Policy {
	friendsActs := []core.Action{core.ActionRead}
	if s.friendsWrite {
		friendsActs = append(friendsActs, core.ActionWrite)
	}
	rw := []core.Action{core.ActionRead, core.ActionWrite}
	return policy.Policy{
		ID:    o.policyID,
		Owner: o.id,
		Name:  "general",
		Kind:  policy.KindGeneral,
		Rules: []policy.Rule{
			{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: groupBlocked}}},
			{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: groupFriends}}, Actions: friendsActs},
			{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: groupFamily}}, Actions: rw},
			{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: string(o.vip)}}, Actions: rw},
			{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: string(o.denyW)}}, Actions: []core.Action{core.ActionWrite}},
		},
	}
}

// tokenHolder is one requester grant: an application acting for a subject
// on one owner's realm.
type tokenHolder struct {
	owner   int
	app     core.RequesterID
	subject core.UserID
	token   string        // minted by the AM at set-up
	req     *http.Request // built once; carries the token to Check
}

// population is the seeded world every workload shares.
type population struct {
	owners    []*owner
	tokens    []*tokenHolder
	resources []core.ResourceID
	// keyA and keyB permute Zipf ranks over the key space, so the hot set
	// is spread across owners and tokens.
	keyA, keyB uint64
}

// keyCount is the size of the (token, resource, action) key space.
func (p *population) keyCount() uint64 {
	return uint64(len(p.tokens) * len(p.resources) * len(actions))
}

// key names one Check input.
type key struct {
	token  int
	res    int
	action int
}

func (p *population) keyAt(k uint64) key {
	a := int(k % uint64(len(actions)))
	k /= uint64(len(actions))
	r := int(k % uint64(len(p.resources)))
	return key{token: int(k / uint64(len(p.resources))), res: r, action: a}
}

func (p *population) owned(k key) (*owner, *tokenHolder) {
	t := p.tokens[k.token]
	return p.owners[t.owner], t
}

// snap is an owner's model state as seen at one instant.
type snap struct{ cur, pend *ownerState }

func (o *owner) snap() snap { return snap{o.state.Load(), o.pending.Load()} }

// allows reports whether verdict v for (u, a) is one the oracle accepts for
// a Check that ran between snapshots before and after: the current state,
// or the in-flight state while a write to the owner has been sent and its
// revocation is not yet applied at the Host.
func (o *owner) allows(before, after snap, u core.UserID, a core.Action, v bool) bool {
	for _, s := range [4]*ownerState{before.cur, before.pend, after.cur, after.pend} {
		if s != nil && o.verdict(s, u, a) == v {
			return true
		}
	}
	return false
}

// newPopulation builds the model from seed. Nothing is provisioned yet.
func newPopulation(seed uint64, sz sizes) *population {
	rng := rand.New(rand.NewPCG(seed, 0x706f70))
	p := &population{}
	for i := range sz.resources {
		p.resources = append(p.resources, core.ResourceID(fmt.Sprintf("res-%02d", i)))
	}
	users := make([]core.UserID, sz.users)
	for i := range users {
		users[i] = core.UserID(fmt.Sprintf("u%03d", i))
	}
	apps := make([]core.RequesterID, sz.apps)
	for i := range apps {
		apps[i] = core.RequesterID(fmt.Sprintf("app-%d", i))
	}
	need := 1 + sz.friends + sz.family + sz.blocked
	for oi := range sz.owners {
		o := &owner{
			id:    core.UserID(fmt.Sprintf("o%03d", oi)),
			realm: core.RealmID(fmt.Sprintf("album-o%03d", oi)),
		}
		perm := rng.Perm(len(users))[:need]
		pick := func(n int) []core.UserID {
			out := make([]core.UserID, n)
			for i := range out {
				out[i] = users[perm[0]]
				perm = perm[1:]
			}
			slices.Sort(out)
			return out
		}
		o.vip = pick(1)[0]
		o.friends = pick(sz.friends)
		o.family = pick(sz.family)
		o.denyW = o.family[rng.IntN(len(o.family))]
		o.initial = &ownerState{blocked: pick(sz.blocked)}
		o.state.Store(o.initial)

		// Token holders: distinct (app, subject) pairs over the subjects
		// the policy lets read, so every token request is granted.
		subjects := append(append([]core.UserID{o.vip}, o.friends...), o.family...)
		pairs := rng.Perm(len(subjects) * len(apps))[:sz.tokensPerOwner]
		for _, pi := range pairs {
			o.tokens = append(o.tokens, len(p.tokens))
			p.tokens = append(p.tokens, &tokenHolder{
				owner:   oi,
				app:     apps[pi%len(apps)],
				subject: subjects[pi/len(apps)],
			})
		}
		p.owners = append(p.owners, o)
	}
	// An odd multiplier with no factor in common with the key count makes
	// rank → key a bijection.
	n := p.keyCount()
	p.keyA = 2654435761 % n
	for gcd(p.keyA, n) != 1 {
		p.keyA++
	}
	p.keyB = rng.Uint64N(n)
	return p
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// setToken records the minted token and builds the Host-side request that
// carries it, once, so the generator does not pay for a request per Check.
func (t *tokenHolder) setToken(tok string) {
	t.token = tok
	t.req = &http.Request{
		Method: http.MethodGet,
		URL:    &url.URL{Path: "/photos"},
		Header: http.Header{"Authorization": {"UMAC " + tok}},
	}
}
