package dataorient

import (
	"crypto/sha256"
	"fmt"
	"io"

	"github.com/csrd-repro/datasync/internal/loop"
)

// PlanDigest hashes every observable field of a plan: the element order
// and names, each element's access sequence, every statement instance's
// accesses in RefSlot order, the version table, the full/empty bit
// numbering with its names, the key names and the footprint. Two plans
// with equal digests are interchangeable for every code generator.
func PlanDigest(p *Plan) string {
	h := sha256.New()
	access := func(a *Access) {
		fmt.Fprintf(h, " %d/%d/%d %v e%d=%s t%d ep%d c%d r%d b%d",
			a.ID.Lpid, a.ID.StmtPos, a.ID.RefSlot, a.Kind, a.ElemIdx, p.Order[a.ElemIdx],
			a.Ticket, a.Epoch, a.CopyIdx, a.Readers, a.Bit)
	}
	fmt.Fprintf(h, "elems %d\n", len(p.Order))
	for i, e := range p.Order {
		fmt.Fprintf(h, "%d %s %d %v %q %q final=%d:", i, e.Array, e.Dims, e.C, e, keyNames{p}.Name(i), p.FinalKey(i))
		for _, a := range planSeq(p, i) {
			access(a)
		}
		io.WriteString(h, "\n")
	}
	stmts := p.Nest.Stmts()
	for lpid := int64(1); lpid <= p.Nest.Iterations(); lpid++ {
		for pos := range stmts {
			accs := p.Accesses(lpid, pos)
			fmt.Fprintf(h, "@%d,%d nil=%v:", lpid, pos, accs == nil)
			for i := range accs {
				access(&accs[i])
			}
			io.WriteString(h, "\n")
		}
	}
	fmt.Fprintf(h, "verBase %v\n", p.verBase)
	for _, w := range p.bitWrites {
		fmt.Fprintf(h, "bitWrite e%d ep%d b%d\n", w.ElemIdx, w.Epoch, w.Bit)
	}
	for b := 0; b < int(p.foot.Bits); b++ {
		fmt.Fprintf(h, "bit %d %s\n", b, bitNames{p}.Name(b))
	}
	fmt.Fprintf(h, "foot %+v\n", p.Footprint())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// BuildSparsePlan is BuildPlan numbering elements through the map of
// fixed-size keys, whatever the nest's subscripts.
func BuildSparsePlan(n *loop.Nest) *Plan { return buildPlan(n, false) }

// Dense reports whether BuildPlan numbers the nest's elements by their
// offsets in the arrays' bounding boxes.
func Dense(n *loop.Nest) bool { return newPlanBuilder(n, true).dense }

// planSeq is element i's access sequence in serial execution order.
func planSeq(p *Plan, i int) []*Access { return p.Seq(i) }
