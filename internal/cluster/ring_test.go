package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// testKeys derives n uniformly distributed ring positions the same way real
// canon keys do (first 8 bytes of a SHA-256), so distribution results carry
// over to real traffic.
func testKeys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("test-key-%d", i)))
		out[i] = binary.BigEndian.Uint64(sum[:8])
	}
	return out
}

func eightMembers() []Member {
	ms := make([]Member, 8)
	for i := range ms {
		ms[i] = Member{ID: fmt.Sprintf("node-%d", i), Addr: fmt.Sprintf("http://10.0.0.%d:8077", i)}
	}
	return ms
}

// TestRingDistribution: with 256 virtual nodes per member, every member's
// share of a uniform key population must land within 15% of an equal
// share — the ring's balance bound.
func TestRingDistribution(t *testing.T) {
	members := eightMembers()
	ring, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 200_000
	counts := map[string]int{}
	for _, pos := range testKeys(samples) {
		counts[ring.OwnerPos(pos).ID]++
	}
	expect := float64(samples) / float64(len(members))
	for _, m := range members {
		got := float64(counts[m.ID])
		dev := (got - expect) / expect
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("member %s: %d keys, expected %.0f (%+.1f%%) — outside the 15%% balance bound",
				m.ID, counts[m.ID], expect, dev*100)
		}
	}
}

// TestRingMovement: removing (or adding) one of N members must move strictly
// fewer than 2/N of the keys, and every moved key must involve the changed
// member — the minimal-disruption property that makes node loss cheap.
func TestRingMovement(t *testing.T) {
	members := eightMembers()
	full, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 100_000
	keys := testKeys(samples)

	t.Run("leave", func(t *testing.T) {
		const gone = "node-3"
		smaller, err := full.Without(gone)
		if err != nil {
			t.Fatal(err)
		}
		if smaller.Version() == full.Version() {
			t.Error("ring version did not change on member removal")
		}
		moved := 0
		for _, pos := range keys {
			before, after := full.OwnerPos(pos).ID, smaller.OwnerPos(pos).ID
			if before == after {
				continue
			}
			moved++
			if before != gone {
				t.Fatalf("key moved from surviving member %s to %s: only the departed member's keys may move", before, after)
			}
		}
		if limit := 2 * samples / len(members); moved >= limit {
			t.Errorf("removal moved %d/%d keys, want < %d (2/N)", moved, samples, limit)
		}
		if moved == 0 {
			t.Error("removal moved no keys: the departed member owned nothing?")
		}
	})

	t.Run("join", func(t *testing.T) {
		const joined = "node-7"
		smaller, err := full.Without(joined)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, pos := range keys {
			before, after := smaller.OwnerPos(pos).ID, full.OwnerPos(pos).ID
			if before == after {
				continue
			}
			moved++
			if after != joined {
				t.Fatalf("join moved a key from %s to %s, not to the joining member", before, after)
			}
		}
		if limit := 2 * samples / len(members); moved >= limit {
			t.Errorf("join moved %d/%d keys, want < %d", moved, samples, limit)
		}
	})
}

// TestRingDeterminism: ownership must be a pure function of the membership
// multiset — byte-identical across member input order, GOMAXPROCS 1/4/8,
// and concurrent readers. This is what lets every node route without
// coordination.
func TestRingDeterminism(t *testing.T) {
	members := eightMembers()
	keys := testKeys(2_000)

	ownershipTable := func(r *Ring) string {
		var sb strings.Builder
		for _, pos := range keys {
			sb.WriteString(r.OwnerPos(pos).ID)
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	ref, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	want := ownershipTable(ref)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		shuffled := make([]Member, len(members))
		copy(shuffled, members)
		rand.New(rand.NewSource(int64(procs))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		ring, err := NewRing(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Version() != ref.Version() {
			t.Fatalf("GOMAXPROCS=%d: version %s != reference %s for the same membership", procs, ring.Version(), ref.Version())
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := ownershipTable(ring); got != want {
					t.Errorf("GOMAXPROCS=%d: ownership table diverged from reference", procs)
				}
			}()
		}
		wg.Wait()
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]Member{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Error("duplicate member ID accepted")
	}
	if _, err := NewRing([]Member{{Addr: "http://x"}}); err == nil {
		t.Error("empty member ID accepted")
	}
	solo, err := NewRing([]Member{{ID: "only"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Without("only"); err == nil {
		t.Error("removing the last member must be refused")
	}
	same, err := solo.Without("absent")
	if err != nil || same != solo {
		t.Error("removing an absent member must return the same ring")
	}
}
