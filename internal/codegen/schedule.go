package codegen

import (
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/loop"
)

// The process-oriented synchronization placement, independent of whether
// the result runs on the simulator or on goroutines: a per-iteration
// schedule of waits, statement executions, step publications and the
// ownership transfer.

type actionKind int

const (
	actWait     actionKind = iota // wait_PC(dist, step)
	actStmt                       // execute a statement
	actPublish                    // set_PC/mark_PC(step)
	actTransfer                   // transfer_PC / get_PC+release_PC
)

type action struct {
	kind actionKind
	dist int64 // actWait
	step int64 // actWait, actPublish
	stmt *deps.Stmt
}

// transferAtEnd reports whether ownership must be passed at the body end
// (the statically last source statement sits inside a branch, Example 3).
func (di *depInfo) transferAtEnd(n *loop.Nest) bool {
	return di.lastSrc >= 0 && !topLevelStmt(n, di.lastSrc, di)
}

// schedule builds the iteration's action list: sink waits before each
// statement (skipping sources before the loop start), publications after
// each source statement, covering publications for skipped branch arms,
// and exactly one transfer per iteration that has any source. idx is the
// iteration's index vector. It appends to acts, so a caller building
// iterations one at a time can reuse one buffer.
func (di *depInfo) schedule(acts []action, n *loop.Nest, iter int64, idx []int64) []action {
	sc := scheduler{di: di, iter: iter, idx: idx, endTransfer: di.transferAtEnd(n), acts: acts}
	sc.walk(n.Body)
	if sc.endTransfer {
		sc.acts = append(sc.acts, action{kind: actTransfer})
	}
	return sc.acts
}

// scheduler is one schedule call's state; a struct with methods rather
// than recursive closures, which would be heap-allocated on every call.
type scheduler struct {
	di          *depInfo
	iter        int64
	idx         []int64
	endTransfer bool
	acts        []action
}

func (sc *scheduler) publish(step int64, isLast bool) {
	if isLast {
		sc.acts = append(sc.acts, action{kind: actTransfer})
		return
	}
	sc.acts = append(sc.acts, action{kind: actPublish, step: step})
}

// cover publishes for the sources of a skipped branch arm: a waiter on any
// of their steps must still be released (Fig 5.3).
func (sc *scheduler) cover(nodes []loop.Node) {
	if max := sc.di.maxSourceStep(nodes); max > 0 {
		sc.publish(max, false)
	}
}

func (sc *scheduler) walk(nodes []loop.Node) {
	di := sc.di
	for _, node := range nodes {
		switch v := node.(type) {
		case loop.StmtNode:
			p := di.pos[v.S]
			for _, a := range di.incoming[p] {
				d := a.Dist[0]
				if sc.iter-d >= 1 {
					sc.acts = append(sc.acts, action{kind: actWait, dist: d, step: di.step[a.Src]})
				}
			}
			sc.acts = append(sc.acts, action{kind: actStmt, stmt: v.S})
			if step, ok := di.step[p]; ok {
				sc.publish(step, p == di.lastSrc && !sc.endTransfer)
			}
		case loop.IfNode:
			if v.Cond(sc.idx) {
				sc.walk(v.Then)
				sc.cover(v.Else)
			} else {
				sc.cover(v.Then) // publish early: steps below the arm's own
				sc.walk(v.Else)
			}
		}
	}
}
