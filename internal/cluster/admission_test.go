package cluster

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is an injectable clock for admission tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func testAdmission(pol TenantPolicy) (*Admission, *fakeClock) {
	a := NewAdmission(pol)
	clk := newFakeClock()
	a.now = clk.now
	return a, clk
}

// TestAdmissionTokenBucket: a tenant burns its burst, is shed with a
// whole-second Retry-After, and earns tokens back at Rate as time passes.
func TestAdmissionTokenBucket(t *testing.T) {
	a, clk := testAdmission(TenantPolicy{Rate: 2, Burst: 2})

	for i := 0; i < 2; i++ {
		_, ok := a.Admit("hot")
		if !ok {
			t.Fatalf("request %d within burst was shed", i)
		}
	}
	retryAfter, ok := a.Admit("hot")
	if ok {
		t.Fatal("request over burst was admitted")
	}
	if retryAfter < time.Second || retryAfter%time.Second != 0 {
		t.Errorf("retryAfter = %v, want a whole positive number of seconds", retryAfter)
	}

	// Rate 2/s: half a second accrues one token.
	clk.advance(500 * time.Millisecond)
	if _, ok := a.Admit("hot"); !ok {
		t.Fatal("request after token accrual was shed")
	}

	// An unrelated tenant has its own untouched bucket.
	if _, ok := a.Admit("cool"); !ok {
		t.Fatal("fresh tenant was shed by another tenant's exhaustion")
	}

	sheds := a.Sheds()
	if len(sheds) != 1 || sheds[0].Tenant != "hot" || sheds[0].Shed != 1 {
		t.Errorf("sheds = %+v, want exactly one shed for tenant hot", sheds)
	}
}

// TestAdmissionChargeDebt: Charge debits beyond the burst (work debt), so
// a tenant that just paid for a large sweep is shed until the debt
// amortizes at the configured rate — but the charge itself never rejects,
// so work larger than the burst stays runnable.
func TestAdmissionChargeDebt(t *testing.T) {
	a, clk := testAdmission(TenantPolicy{Rate: 1, Burst: 5})

	_, ok := a.Admit("hot") // 5 tokens -> 4
	if !ok {
		t.Fatal("first request was shed")
	}
	a.Charge("hot", 10) // 4 tokens -> -6: deeper than the burst allows

	retryAfter, ok := a.Admit("hot")
	if ok {
		t.Fatal("tenant in work debt was admitted")
	}
	if retryAfter < 7*time.Second {
		t.Errorf("retryAfter = %v, want >= 7s (6 tokens of debt plus the next whole token)", retryAfter)
	}
	clk.advance(7 * time.Second) // -6 + 7 = 1 token
	if _, ok := a.Admit("hot"); !ok {
		t.Fatal("tenant still shed after the debt amortized")
	}

	// Charge is a no-op without rate limiting, for zero weight, and on a
	// nil Admission.
	b, _ := testAdmission(TenantPolicy{})
	b.Charge("t", 100)
	if _, ok := b.Admit("t"); !ok {
		t.Fatal("Charge debited a tenant despite rate limiting being disabled")
	}
	a.Charge("hot", 0)
	var nilA *Admission
	nilA.Charge("t", 5)
}

// TestAdmissionDisabled: a zero policy (and a nil Admission) admits
// everything — single-node deployments pay nothing.
func TestAdmissionDisabled(t *testing.T) {
	a, _ := testAdmission(TenantPolicy{})
	for i := 0; i < 100; i++ {
		_, ok := a.Admit("any")
		if !ok {
			t.Fatal("disabled policy shed a request")
		}
	}
	var nilA *Admission
	if _, ok := nilA.Admit("any"); !ok {
		t.Fatal("nil Admission shed a request")
	}
}

// TestAdmissionDefaultTenant: requests without a tenant share one bucket.
func TestAdmissionDefaultTenant(t *testing.T) {
	a, _ := testAdmission(TenantPolicy{Rate: 1, Burst: 1})
	_, ok := a.Admit("")
	if !ok {
		t.Fatal("first anonymous request shed")
	}
	if _, ok := a.Admit(""); ok {
		t.Fatal("anonymous requests do not share the default bucket")
	}
	if sheds := a.Sheds(); len(sheds) != 1 || sheds[0].Tenant != DefaultTenant {
		t.Errorf("sheds = %+v, want one shed under %q", sheds, DefaultTenant)
	}
}

// TestAdmissionCardinalityBound: a client minting a fresh tenant name per
// request cannot grow the table past maxTenants — once every slot is held by
// an active tenant, new names degrade into the shared overflow bucket. At a
// negligible rate a tenant that spent its one-token burst stays short of a
// full bucket, and so unevictable, for as long as the test runs.
func TestAdmissionCardinalityBound(t *testing.T) {
	a, clk := testAdmission(TenantPolicy{Rate: 0.001, Burst: 1})

	// Fill the table with active (drained, unevictable) tenants.
	for i := 0; i < maxTenants; i++ {
		if _, ok := a.Admit(fmt.Sprintf("tenant-%d", i)); !ok {
			t.Fatalf("tenant %d shed while filling the table", i)
		}
	}
	if got := len(a.tenants); got != maxTenants {
		t.Fatalf("table holds %d tenants, want %d", got, maxTenants)
	}

	// A fresh name lands in the overflow bucket, which then limits the next
	// fresh name too — shared, stricter limiting instead of memory growth.
	if _, ok := a.Admit("fresh-1"); !ok {
		t.Fatal("first overflow request shed")
	}
	if _, ok := a.Admit("fresh-2"); ok {
		t.Fatal("distinct overflow tenants did not share the overflow bucket's budget")
	}
	if got := len(a.tenants); got > maxTenants+1 {
		t.Errorf("table grew to %d tenants, bound is %d + overflow", got, maxTenants)
	}

	// Once the buckets refill (1,000 s at this rate) the slots are
	// reclaimable for a new name.
	clk.advance(time.Hour)
	if _, ok := a.Admit("brand-new"); !ok {
		t.Fatal("new tenant shed even though idle slots were reclaimable")
	}
	if a.tenants["brand-new"] == nil {
		t.Fatal("new tenant stayed in overflow although idle slots were reclaimable")
	}
	if got := len(a.tenants); got > maxTenants+1 {
		t.Errorf("table grew to %d tenants, bound is %d + overflow", got, maxTenants)
	}
}

// TestAdmissionIdleEvictionRecreatesFreshBucket: at the table cap, an idle
// tenant whose bucket has refilled to full is evicted for a new name — and
// when the evicted tenant comes back, it gets a fresh full bucket, because
// an idle-full bucket is indistinguishable from a fresh one (eviction can
// never grant or remove budget).
func TestAdmissionIdleEvictionRecreatesFreshBucket(t *testing.T) {
	a, clk := testAdmission(TenantPolicy{Rate: 1, Burst: 2})

	// Drain the victim to zero tokens, then let it go idle.
	for i := 0; i < 2; i++ {
		_, ok := a.Admit("victim")
		if !ok {
			t.Fatalf("victim request %d within burst was shed", i)
		}
	}

	// The victim's bucket refills to full while idle: now evictable.
	clk.advance(5 * time.Second)

	// Fill the rest of the table with active tenants: each spends a token
	// now, and the clock does not move again until the newcomer arrives,
	// so their buckets stay short of full and unevictable.
	for i := len(a.tenants); i < maxTenants; i++ {
		if _, ok := a.Admit(fmt.Sprintf("held-%d", i)); !ok {
			t.Fatalf("tenant %d shed while filling the table", i)
		}
	}

	// A new name at the cap evicts the victim and gets its own bucket —
	// not the overflow bucket.
	if _, ok := a.Admit("newcomer"); !ok {
		t.Fatal("newcomer shed despite an evictable idle slot")
	}
	if a.tenants["victim"] != nil {
		t.Fatal("idle-full victim survived eviction at the table cap")
	}
	if a.tenants["newcomer"] == nil {
		t.Fatal("newcomer was remapped to overflow despite an evictable slot")
	}

	// The evicted victim returns: once another idle-full slot exists, its
	// next request re-creates a fresh bucket with the full burst.
	clk.advance(5 * time.Second) // newcomer refills to full, becomes evictable
	for i := 0; i < 2; i++ {
		_, ok := a.Admit("victim")
		if !ok {
			t.Fatalf("evicted victim's request %d was shed; want a fresh full bucket", i)
		}
	}
	if a.tenants["victim"] == nil {
		t.Fatal("victim's return did not re-create its bucket")
	}
}

// TestAdmissionOverflowFallbackUnderRatePolicy: under the injectable clock
// with a rate policy, a table at the cap whose buckets are all freshly
// drained (nothing idle-full, nothing evictable) routes new tenant names
// to the shared overflow bucket, whose sheds are attributed to it.
func TestAdmissionOverflowFallbackUnderRatePolicy(t *testing.T) {
	a, clk := testAdmission(TenantPolicy{Rate: 1, Burst: 1})

	// Every bucket is drained at the same instant: no idle-full slot exists.
	for i := 0; i < maxTenants; i++ {
		if _, ok := a.Admit(fmt.Sprintf("t-%d", i)); !ok {
			t.Fatalf("tenant %d shed while filling the table", i)
		}
	}

	// A fresh name cannot evict anything and lands in the overflow bucket.
	_, ok := a.Admit("fresh-a")
	if !ok {
		t.Fatal("first overflow request shed (overflow bucket starts full)")
	}
	if a.tenants["fresh-a"] != nil {
		t.Fatal("fresh tenant got its own bucket past the cap with nothing evictable")
	}
	if a.tenants[overflowTenant] == nil {
		t.Fatal("overflow bucket was not created")
	}

	// The next fresh name shares the (now drained) overflow bucket, and the
	// shed is attributed to the overflow tenant.
	if _, ok := a.Admit("fresh-b"); ok {
		t.Fatal("second overflow tenant did not share the overflow bucket's quota")
	}
	foundOverflowShed := false
	for _, s := range a.Sheds() {
		if s.Tenant == overflowTenant && s.Shed >= 1 {
			foundOverflowShed = true
		}
	}
	if !foundOverflowShed {
		t.Errorf("sheds %+v missing the overflow tenant's count", a.Sheds())
	}

	// Time passes, the per-tenant buckets refill and become evictable: a
	// fresh name escapes the overflow bucket and gets its own again.
	clk.advance(2 * time.Second)
	_, ok = a.Admit("fresh-c")
	if !ok {
		t.Fatal("fresh tenant shed after slots became evictable")
	}
	if a.tenants["fresh-c"] == nil {
		t.Fatal("fresh tenant stayed in overflow after slots became evictable")
	}
}

// TestAdmissionShedSeriesBound: a tenant's shed count lives in its bucket,
// so a client minting names that are each shed once and then go idle
// leaves at most maxTenants+1 shed series, not one per name ever seen.
// An evicted tenant's count goes with its bucket.
func TestAdmissionShedSeriesBound(t *testing.T) {
	a, clk := testAdmission(TenantPolicy{Rate: 1, Burst: 1})
	for i := 0; i < 3*maxTenants; i++ {
		name := fmt.Sprintf("t-%d", i)
		if _, ok := a.Admit(name); !ok {
			t.Fatalf("tenant %s shed on its first request", name)
		}
		if _, ok := a.Admit(name); ok {
			t.Fatalf("tenant %s admitted past its one-token burst", name)
		}
		if (i+1)%maxTenants == 0 {
			clk.advance(2 * time.Second) // every bucket refills: all evictable
		}
	}
	if got := len(a.tenants); got > maxTenants+1 {
		t.Errorf("table holds %d tenants, bound is %d + overflow", got, maxTenants)
	}
	if got := len(a.Sheds()); got > maxTenants+1 {
		t.Errorf("%d shed series after %d minted tenants, bound is %d + overflow", got, 3*maxTenants, maxTenants)
	}
}

// TestAdmissionFreshNamesScanOncePerRefill: at a full table of drained
// buckets, a client minting a new tenant name per request makes one scan
// of the table, not one per request, until a bucket can be full again;
// then the next fresh name scans, evicts it and gets its own bucket.
func TestAdmissionFreshNamesScanOncePerRefill(t *testing.T) {
	a, clk := testAdmission(TenantPolicy{Rate: 0.001, Burst: 1})
	for i := 0; i < maxTenants; i++ {
		if _, ok := a.Admit(fmt.Sprintf("tenant-%d", i)); !ok {
			t.Fatalf("tenant %d shed while filling the table", i)
		}
	}
	for i := 0; i < 1000; i++ {
		a.Admit(fmt.Sprintf("fresh-%d", i))
		clk.advance(time.Second)
	}
	// The first fresh name scans and creates the overflow bucket, which
	// starts full; the second scans again and finds it drained.
	if a.scans != 2 {
		t.Errorf("%d table scans for 1,000 fresh names at a drained table, want 2", a.scans)
	}
	if got := len(a.tenants); got != maxTenants+1 {
		t.Errorf("table holds %d tenants, want %d + overflow", got, maxTenants)
	}
	// Every bucket refills 1,000 s after it drained: the next fresh name
	// scans and reclaims a slot.
	clk.advance(time.Hour)
	if _, ok := a.Admit("brand-new"); !ok || a.tenants["brand-new"] == nil {
		t.Fatal("fresh name after the refill did not get its own bucket")
	}
	if a.scans != 3 {
		t.Errorf("%d table scans after the refill, want 3", a.scans)
	}
}
