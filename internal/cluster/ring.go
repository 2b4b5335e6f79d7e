// Package cluster turns N dsserve processes into one logical service.
//
// The paper's determinism argument is what makes this layer thin: every
// /run, /verify and /compile answer is a pure function of its canonical
// content address (internal/cache), so the cache key is an exact sharding
// unit — any node can compute any result and get byte-identical answers,
// but routing a key to one owning node turns the cluster's combined memory
// into one big content-addressed cache instead of N overlapping ones.
//
// The pieces:
//
//   - Ring (this file): a deterministic consistent-hash ring with virtual
//     nodes and versioned membership, mapping canon keys to owners.
//   - Node (node.go): the peer middleware in front of a service.Server —
//     admission, ownership routing with loop-safe forwarding (a node that
//     already holds a key answers it), and failure healing (an unreachable
//     owner is removed from the ring and its keys reassigned to the
//     survivors).
//   - Work-stealing sweeps (steal.go): /sweep grids split into
//     owner-aligned sub-grids dispatched cluster-wide, idle nodes stealing
//     pending sub-grids, lost nodes' sub-grids re-dispatched to survivors.
//   - Admission (admission.go): per-tenant token buckets in front of
//     everything, so one hot tenant is shed with 429s while every other
//     tenant keeps being served.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"github.com/csrd-repro/datasync/internal/cache"
)

// ringCanonVersion prefixes every ring-position hash. Bumping it remaps
// the whole ring, so it changes only with the placement algorithm itself.
const ringCanonVersion = "dscluster-ring-v1"

// vnodesPerMember is how many virtual nodes each member contributes. More
// virtual nodes smooth the key distribution (the distribution test pins
// +/-15% at 256 across 8 members; 64 was measurably too lumpy, one member
// drew +19%) at the cost of a longer sorted array; lookups stay O(log n).
const vnodesPerMember = 256

// Member is one dsserve process in the cluster.
type Member struct {
	// ID is the stable node identity (the -node-id flag). Ring placement
	// hashes the ID, never the address, so a node can move hosts without
	// remapping its keys.
	ID string `json:"id"`
	// Addr is the node's base URL, e.g. "http://10.0.0.7:8077".
	Addr string `json:"addr"`
}

// vnode is one virtual node: a deterministic position owned by a member.
type vnode struct {
	pos    uint64
	member int32 // index into members
}

// Ring is an immutable consistent-hash ring over the cluster membership.
// Immutability is the concurrency story: membership changes build a new
// ring and swap it atomically, so a request observes one coherent view.
type Ring struct {
	members []Member // sorted by ID
	vnodes  []vnode  // sorted by (pos, member ID)
	version string
}

// NewRing builds the ring for a membership set. Construction is a pure
// function of the member IDs: every node that knows the same
// membership computes byte-identical ownership, with no coordination.
func NewRing(members []Member) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	ms := make([]Member, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if m.ID == "" {
			return nil, fmt.Errorf("cluster: member with empty ID (addr %q)", m.Addr)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", m.ID)
		}
		seen[m.ID] = true
	}

	r := &Ring{members: ms}
	for i, m := range ms {
		for v := 0; v < vnodesPerMember; v++ {
			r.vnodes = append(r.vnodes, vnode{pos: vnodePos(m.ID, v), member: int32(i)})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		// A 64-bit collision between virtual nodes is astronomically rare
		// but must still order deterministically: member ID breaks the tie.
		return r.members[a.member].ID < r.members[b.member].ID
	})

	h := sha256.New()
	fmt.Fprintf(h, "%s\x00", ringCanonVersion)
	for _, m := range ms {
		// The trailing 1 is the member weight of earlier releases, kept so
		// that the version agrees with theirs and reads as no skew.
		fmt.Fprintf(h, "%s\x00%s\x001\x00", m.ID, m.Addr)
	}
	r.version = hex.EncodeToString(h.Sum(nil))[:16]
	return r, nil
}

// vnodePos hashes one (member, replica) pair to its ring position.
func vnodePos(id string, replica int) uint64 {
	sum := sha256.Sum256([]byte(ringCanonVersion + "\x00" + id + "\x00" + strconv.Itoa(replica)))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member owning a canonical content address.
func (r *Ring) Owner(k cache.Key) Member { return r.OwnerPos(k.Ring()) }

// OwnerPos returns the member owning a raw ring position: the member of
// the first virtual node at or clockwise-after pos, wrapping at the top.
func (r *Ring) OwnerPos(pos uint64) Member {
	return r.members[r.vnodes[r.vnodeAt(pos)].member]
}

// vnodeAt is the index of the first virtual node at or clockwise-after pos.
func (r *Ring) vnodeAt(pos uint64) int {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].pos >= pos })
	if i == len(r.vnodes) {
		return 0
	}
	return i
}

// Version is a content hash of the membership set (IDs and addresses):
// two nodes agree on ownership exactly when their versions match.
func (r *Ring) Version() string { return r.version }

// Members returns the membership, sorted by ID.
func (r *Ring) Members() []Member { return r.members }

// Size is the member count.
func (r *Ring) Size() int { return len(r.members) }

// Member looks a member up by ID.
func (r *Ring) Member(id string) (Member, bool) {
	i := sort.Search(len(r.members), func(i int) bool { return r.members[i].ID >= id })
	if i < len(r.members) && r.members[i].ID == id {
		return r.members[i], true
	}
	return Member{}, false
}

// Has reports whether id is a member.
func (r *Ring) Has(id string) bool {
	_, ok := r.Member(id)
	return ok
}

// Without returns a new ring with the member removed — the node-loss path.
// Only the departed member's virtual nodes vanish, so only its keys move
// (to the survivors next clockwise), which is the minimal-movement
// property the membership test pins. Removing the last member is refused:
// a cluster of one serves everything itself.
func (r *Ring) Without(id string) (*Ring, error) {
	if !r.Has(id) {
		return r, nil
	}
	if len(r.members) == 1 {
		return nil, fmt.Errorf("cluster: refusing to remove the last member %q", id)
	}
	rest := make([]Member, 0, len(r.members)-1)
	for _, m := range r.members {
		if m.ID != id {
			rest = append(rest, m)
		}
	}
	return NewRing(rest)
}
