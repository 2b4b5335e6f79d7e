package cluster

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultTenant is the bucket for requests that carry no tenant header.
const DefaultTenant = "anon"

// maxTenants bounds the admission table: a hostile client minting a fresh
// tenant name per request must not grow node memory without bound. Past
// the cap, idle full-bucket tenants are evicted first; if every bucket is
// short of full, new names share the overflow bucket.
const maxTenants = 4096

// overflowTenant absorbs tenants past the table cap, so cardinality abuse
// degrades into shared (stricter) limiting instead of memory growth.
const overflowTenant = "~overflow"

// TenantPolicy is the per-tenant admission policy: a token bucket over
// request arrivals. The zero value disables admission entirely.
type TenantPolicy struct {
	// Rate is the sustained request rate per tenant in requests/second;
	// <= 0 disables admission.
	Rate float64
	// Burst is the token bucket capacity (instantaneous burst headroom).
	// Defaults to ceil(Rate), minimum 1, when Rate is set.
	Burst int
}

func (p TenantPolicy) burst() float64 {
	if p.Burst > 0 {
		return float64(p.Burst)
	}
	return math.Max(1, math.Ceil(p.Rate))
}

// tenantState is one tenant's bucket and its shed count. The count lives
// and dies with the bucket, so the shed series are bounded by the table.
type tenantState struct {
	tokens float64
	last   time.Time
	shed   int64
}

// Admission enforces a TenantPolicy per tenant. It sits in front of the
// whole node — cache and pool — so a hot tenant is shed with 429s while
// every other tenant keeps being served.
type Admission struct {
	pol TenantPolicy
	now func() time.Time // injectable clock for tests

	mu      sync.Mutex
	tenants map[string]*tenantState
	// fullAt is, after a scan of the table found no idle-full bucket, the
	// earliest time any of its buckets can have refilled to full; until
	// then evictIdleLocked need not scan. Tokens only fall between
	// refills, so no bucket becomes full sooner; a new bucket, which
	// starts full, resets it.
	fullAt time.Time
	scans  int // full-table scans made, for tests
}

// NewAdmission builds an Admission for the policy (nil-safe to use when
// the policy is disabled: every request is admitted).
func NewAdmission(pol TenantPolicy) *Admission {
	return &Admission{
		pol:     pol,
		now:     time.Now,
		tenants: make(map[string]*tenantState),
	}
}

// Admit charges one request to the tenant's bucket. When shed, retryAfter
// estimates the wait until a token accrues, for the 429's Retry-After
// header.
func (a *Admission) Admit(tenant string) (retryAfter time.Duration, ok bool) {
	if a == nil || a.pol.Rate <= 0 {
		return 0, true
	}
	if tenant == "" {
		tenant = DefaultTenant
	}

	a.mu.Lock()
	defer a.mu.Unlock()

	ts := a.stateLocked(tenant)
	a.refillLocked(ts)

	if ts.tokens < 1 {
		ts.shed++
		wait := time.Duration((1 - ts.tokens) / a.pol.Rate * float64(time.Second))
		// Ceil to a whole second so the header never renders 0.
		return ((wait-1)/time.Second + 1) * time.Second, false
	}
	ts.tokens--
	return 0, true
}

// Charge debits extra tokens from a tenant's rate bucket, beyond the one
// Admit took on arrival. The sweep coordinator uses it to weight a /sweep
// by its expanded size — one token per dispatched sub-grid — so a grid of
// thousands of points cannot ride through admission at the cost of a
// single /run. The debit may drive the bucket negative (work debt): the
// already-admitted sweep still runs, even one larger than the burst
// capacity, but the tenant's subsequent arrivals are shed until the debt
// amortizes at the configured rate.
func (a *Admission) Charge(tenant string, tokens int) {
	if a == nil || a.pol.Rate <= 0 || tokens <= 0 {
		return
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.stateLocked(tenant)
	a.refillLocked(ts)
	ts.tokens -= float64(tokens)
}

// stateLocked resolves a tenant name to its bucket, creating it (or
// falling back to the overflow bucket at the table cap) as needed.
func (a *Admission) stateLocked(tenant string) *tenantState {
	ts := a.tenants[tenant]
	if ts == nil {
		if len(a.tenants) >= maxTenants && !a.evictIdleLocked() {
			tenant = overflowTenant
			ts = a.tenants[tenant]
		}
		if ts == nil {
			ts = &tenantState{tokens: a.pol.burst(), last: a.now()}
			a.tenants[tenant] = ts
			a.fullAt = time.Time{}
		}
	}
	return ts
}

// refillLocked accrues tokens for the time since the bucket was last
// touched, capped at the burst capacity.
func (a *Admission) refillLocked(ts *tenantState) {
	now := a.now()
	ts.tokens = a.tokensAt(ts, now)
	ts.last = now
}

// tokensAt is the bucket's balance at now, capped at the burst capacity.
func (a *Admission) tokensAt(ts *tenantState, now time.Time) float64 {
	return math.Min(a.pol.burst(), ts.tokens+now.Sub(ts.last).Seconds()*a.pol.Rate)
}

// evictIdleLocked drops one tenant whose bucket has refilled to full —
// state indistinguishable from a fresh entry, so eviction cannot grant
// anyone extra budget. The tenant's shed count goes with it: its series
// restarts from zero if the tenant returns, an ordinary counter reset.
// Reports whether a slot was freed. A scan that frees none remembers when
// the first bucket can be full again, so a client minting names at a full,
// drained table costs one scan per refill, not one per request.
func (a *Admission) evictIdleLocked() bool {
	now := a.now()
	if now.Before(a.fullAt) {
		return false
	}
	a.scans++
	soonest := time.Duration(math.MaxInt64)
	for name, ts := range a.tenants {
		short := a.pol.burst() - a.tokensAt(ts, now)
		if short <= 0 {
			delete(a.tenants, name)
			return true
		}
		if d := short / a.pol.Rate * float64(time.Second); d < float64(soonest) {
			soonest = time.Duration(d)
		}
	}
	a.fullAt = now.Add(soonest)
	return false
}

// Sheds snapshots the shed counters of the tenants in the table that
// were ever shed, sorted by tenant name.
func (a *Admission) Sheds() []TenantSheds {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []TenantSheds
	for name, ts := range a.tenants {
		if ts.shed > 0 {
			out = append(out, TenantSheds{Tenant: name, Shed: ts.shed})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// TenantSheds is one tenant's shed count.
type TenantSheds struct {
	Tenant string
	Shed   int64
}
