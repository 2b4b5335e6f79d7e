package codegen

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
	pos  int   // actStmt: statement position
}

// schedule builds the iteration's action list: sink waits before each
// statement (skipping sources before the loop start), publications after
// each source statement, covering publications for skipped branch arms,
// and exactly one transfer per iteration that has any source. body is the
// workload's resolved body and idx the iteration's index vector. It appends
// to acts, so a caller building iterations one at a time can reuse one
// buffer.
func (di *depInfo) schedule(acts []action, body []pnode, iter int64, idx []int64) []action {
	sc := scheduler{di: di, iter: iter, idx: idx, acts: acts}
	sc.walk(body)
	if di.endTransfer {
		sc.acts = append(sc.acts, action{kind: actTransfer})
	}
	return sc.acts
}

// scheduler is one schedule call's state; a struct with methods rather
// than recursive closures, which would be heap-allocated on every call.
type scheduler struct {
	di   *depInfo
	iter int64
	idx  []int64
	acts []action
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
func (sc *scheduler) cover(nodes []pnode) {
	if max := sc.di.maxSourceStep(nodes); max > 0 {
		sc.publish(max, false)
	}
}

func (sc *scheduler) walk(nodes []pnode) {
	di := sc.di
	for i := range nodes {
		n := &nodes[i]
		if p := n.pos; p >= 0 {
			for _, a := range di.incoming[p] {
				if sc.iter-a.dist >= 1 {
					sc.acts = append(sc.acts, action{kind: actWait, dist: a.dist, step: di.step[a.src]})
				}
			}
			sc.acts = append(sc.acts, action{kind: actStmt, pos: p})
			if step := di.step[p]; step > 0 {
				sc.publish(step, p == di.lastSrc && !di.endTransfer)
			}
			continue
		}
		if n.cond(sc.idx) {
			sc.walk(n.then)
			sc.cover(n.els)
		} else {
			sc.cover(n.then) // publish early: steps below the arm's own
			sc.walk(n.els)
		}
	}
}
