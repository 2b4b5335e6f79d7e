package cluster

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
)

// goldenRing is the pinned placement of a fixed three-member membership:
// the ring version, then one line per fixed key with its owner. Every node
// of a cluster must agree on these, across releases too: a rolling upgrade
// mixes binaries, and any difference in version would be counted as ring
// skew on every peer exchange, and any difference in placement would send
// each key to a different owner from each node.
const goldenRing = `version 96eaaa570f7bd0fd
1afd553519a2c3dd a
e8def9799a176260 c
55d603a28993c946 c
b42c181fbbfdb999 a
413bf76c23e0abb8 b
9238039ee77041c8 b
0b4e59bdb6ac8437 c
58dc16ed35b49cc5 a
87821c16b796f346 b
155db881e6c228ee a
2248ea70bfe8d0e0 c
a516dec0faf039bc a
ea14c9a97dd4764d a
8725c86578b6bff7 b
9cc7cb870a57d571 b
4d8c85f5f0b10fea c
`

func TestRingGolden(t *testing.T) {
	ring, err := NewRing([]Member{
		{ID: "a", Addr: "http://10.0.0.1:8077"},
		{ID: "b", Addr: "http://10.0.0.2:8077"},
		{ID: "c", Addr: "http://10.0.0.3:8077"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("version " + ring.Version() + "\n")
	for i := 0; i < 16; i++ {
		k := cache.Key(sha256.Sum256([]byte(fmt.Sprintf("golden-ring-key-%d", i))))
		fmt.Fprintf(&sb, "%s %s\n", k.String()[:16], ring.Owner(k).ID)
	}
	if got := sb.String(); got != goldenRing {
		t.Errorf("ring placement changed:\n got:\n%s\nwant:\n%s", got, goldenRing)
	}
}
