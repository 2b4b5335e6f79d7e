package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/csrd-repro/datasync/internal/service"
)

// maxSweepPlans bounds how many times one sweep is re-planned after a
// ring-version fence reject. Each re-plan regroups only the not-yet-done
// points against the coordinator's then-current live ring, so the bound is
// on wasted planning, not on progress: points finished under an earlier
// plan stay finished.
const maxSweepPlans = 5

// sweepTask is one owner-aligned sub-grid of a sweep: indices into the full
// point list, preferring execution on the node that owns those keys (so
// results land in — and later hit — the owner's shard of the cluster cache).
type sweepTask struct {
	owner   string
	indices []int
}

// sweepRun coordinates one cluster-wide sweep with work-stealing. One
// worker per live member drains a per-owner task queue; a worker whose own
// queue is empty steals from the longest remaining queue. A peer that stops
// answering is marked dead, its in-flight task is requeued, and its worker
// exits — survivors (always including self, which executes in-process and
// cannot die) steal the orphaned tasks, so the sweep completes with a
// correct merged front or fails point-by-point, but never hangs.
type sweepRun struct {
	n    *Node
	req  service.SweepRequest
	sels []service.GridSel
	// fence is the version of the live ring this plan was computed
	// against; every sub-grid dispatch carries it, and an executor whose
	// live view disagrees answers 409 instead of evaluating.
	fence string

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]*sweepTask
	pending int  // tasks queued or executing; 0 means the sweep is drained
	skewed  bool // a dispatch was fenced off: abort this plan, re-plan

	points []service.SweepPoint
	done   []bool
}

// coordinateSweep is the cluster entry point for POST /sweep: it shards the
// grid by key ownership, fans the sub-grids across the cluster with work
// stealing, and merges the answers into the same response — byte for byte —
// a single node would produce. Requests the coordinator cannot expand fall
// through to the local handler, which owns the error vocabulary.
func (n *Node) coordinateSweep(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	if deg, reason := n.degraded(); deg {
		// A degraded node is the minority side of a partition: the
		// majority is (or will be) coordinating sweeps against the live
		// set both sides converge to after heal, and a minority
		// coordinator would double-execute the grid against a view about
		// to be retired. Keyed reads stay allowed — replicas make those
		// safe — but cluster-wide coordination is refused.
		w.Header().Set("Retry-After", "1")
		n.writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("cluster: degraded node (%s) refuses to coordinate a cluster sweep; retry against the majority partition", reason))
		return
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		n.writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: read request: %w", err))
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))

	var req service.SweepRequest
	if err := strictUnmarshal(body, &req); err != nil {
		n.serveLocal(w, r, inner)
		return
	}
	// Validate exactly what EvalSweep validates, so an invalid sweep gets
	// the identical local 400 instead of a fan-out of per-point failures.
	if _, err := req.Scheme.Build(); err != nil {
		n.serveLocal(w, r, inner)
		return
	}
	sels, keys, err := service.SweepPointKeys(req)
	if err != nil {
		n.serveLocal(w, r, inner)
		return
	}

	// Weight admission by the sweep's expanded size: the middleware charged
	// one token on arrival; charge the rest — one per StealChunk-sized
	// sub-grid — so a maxSweepPoints grid cannot ride through per-tenant
	// admission at the cost of a single /run.
	if extra := (len(sels)+n.opts.StealChunk-1)/n.opts.StealChunk - 1; extra > 0 {
		n.adm.Charge(r.Header.Get(HeaderTenant), extra)
	}

	if n.ring.Load().Size() == 1 {
		n.serveLocal(w, r, inner)
		return
	}

	// points and done persist across re-plans: a fence reject aborts the
	// plan, never the results already merged under it.
	points := make([]service.SweepPoint, len(sels))
	done := make([]bool, len(sels))

	for plan := 0; plan < maxSweepPlans; plan++ {
		if plan > 0 {
			n.sweepReplans.Add(1)
			// Views converge on probe cadence (gossip rides probes), so
			// re-planning sooner than that just re-collects the same 409.
			delay := n.opts.ProbeInterval
			if delay <= 0 {
				delay = 250 * time.Millisecond
			}
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
			}
		}
		if r.Context().Err() != nil {
			break
		}

		ring := n.ring.Load()
		run := &sweepRun{
			n:      n,
			req:    req,
			sels:   sels,
			fence:  ring.Version(),
			queues: make(map[string][]*sweepTask),
			points: points,
			done:   done,
		}
		run.cond = sync.NewCond(&run.mu)

		// Owner-aligned sub-grids over the not-yet-done points: group
		// indices by the owning member on this plan's live ring, then chunk
		// each group so stealing has useful granularity.
		byOwner := make(map[string][]int)
		for i, k := range keys {
			if done[i] {
				continue
			}
			id := ring.Owner(k).ID
			byOwner[id] = append(byOwner[id], i)
		}
		for id, idx := range byOwner {
			for start := 0; start < len(idx); start += n.opts.StealChunk {
				end := min(start+n.opts.StealChunk, len(idx))
				run.queues[id] = append(run.queues[id], &sweepTask{owner: id, indices: idx[start:end]})
				run.pending++
			}
		}
		if run.pending == 0 {
			break
		}
		if skewed := run.execute(r.Context()); !skewed {
			break
		}
		n.log.Warn("cluster: sweep plan fenced off by ring version skew; re-planning",
			"plan", plan+1, "fence", run.fence)
	}

	// Whatever is still undone after the loop failed for good: the context
	// ended, or the views never converged within the plan budget.
	for i, ok := range done {
		if !ok {
			cause := fmt.Errorf("cluster: ring version skew persisted across %d sweep plans", maxSweepPlans)
			if r.Context().Err() != nil {
				cause = fmt.Errorf("sweep abandoned: %v", context.Cause(r.Context()))
			}
			points[i] = service.FailedSweepPoint(req, sels[i], cause)
		}
	}

	resp := service.SweepResponse{Workload: req.Workload.Name, Points: points}
	if wl, err := req.Workload.Build(); err == nil {
		resp.Workload = wl.Name
	}
	for _, p := range points {
		if p.Error != "" {
			resp.Failed++
			continue
		}
		resp.Evaluated++
		if p.Cached {
			resp.CacheHits++
		}
	}
	// The merged front is re-derived over the full point set, exactly as a
	// single node derives it — sub-grid fronts are never stitched together.
	resp.Pareto = service.ParetoFront(resp.Points)

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderNode, n.self.ID)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// execute runs one worker per live member and waits for this plan to drain,
// abort on a fence reject, or see the request context end. It reports
// whether the plan was fenced off (the coordinator then re-plans); points
// left undone by a cancellation are marked failed by the coordinator after
// the plan budget, not here.
func (run *sweepRun) execute(ctx context.Context) bool {
	// A context that ends while workers wait must wake them up.
	stop := context.AfterFunc(ctx, func() {
		run.mu.Lock()
		run.cond.Broadcast()
		run.mu.Unlock()
	})
	defer stop()

	var wg sync.WaitGroup
	for _, m := range run.n.ring.Load().Members() {
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			run.worker(ctx, m)
		}(m)
	}
	wg.Wait()

	run.mu.Lock()
	defer run.mu.Unlock()
	return run.skewed
}

// worker drains tasks for one member until the sweep completes, the
// context ends, or the member leaves the ring mid-sweep.
func (run *sweepRun) worker(ctx context.Context, m Member) {
	for {
		run.mu.Lock()
		var task *sweepTask
		var stolen bool
		for {
			if run.pending == 0 || run.skewed || ctx.Err() != nil {
				run.mu.Unlock()
				return
			}
			if m.ID != run.n.self.ID && !run.n.ring.Load().Has(m.ID) {
				// The member died (another worker's call failed): its
				// queued tasks stay stealable, but it executes nothing more.
				run.mu.Unlock()
				return
			}
			task, stolen = run.takeLocked(m.ID)
			if task != nil {
				break
			}
			run.cond.Wait()
		}
		run.mu.Unlock()

		if stolen {
			run.n.steals.Add(1)
		}
		run.runTask(ctx, m, task)
	}
}

// takeLocked pops a task for member id: its own queue first, otherwise a
// steal from the longest other queue (ID-ordered tiebreak, so concurrent
// runs disagree only on timing, never on which queue is "longest").
func (run *sweepRun) takeLocked(id string) (*sweepTask, bool) {
	if q := run.queues[id]; len(q) > 0 {
		run.queues[id] = q[1:]
		return q[0], false
	}
	owners := make([]string, 0, len(run.queues))
	for o, q := range run.queues {
		if o != id && len(q) > 0 {
			owners = append(owners, o)
		}
	}
	if len(owners) == 0 {
		return nil, false
	}
	sort.Slice(owners, func(i, j int) bool {
		a, b := owners[i], owners[j]
		if la, lb := len(run.queues[a]), len(run.queues[b]); la != lb {
			return la > lb
		}
		return a < b
	})
	q := run.queues[owners[0]]
	run.queues[owners[0]] = q[1:]
	return q[0], true
}

// runTask evaluates one sub-grid on member m: in-process for self, over the
// peer protocol otherwise. A peer that stops answering is marked dead and
// the task requeued for the survivors.
func (run *sweepRun) runTask(ctx context.Context, m Member, task *sweepTask) {
	sub := run.req
	sub.Grid = service.SweepGrid{}
	sub.Points = make([]service.GridSel, len(task.indices))
	for j, idx := range task.indices {
		sub.Points[j] = run.sels[idx]
	}

	if m.ID == run.n.self.ID {
		resp, err := run.n.srv.EvalSweep(ctx, sub)
		if err != nil {
			run.finish(task, nil, err)
			return
		}
		run.finish(task, resp.Points, nil)
		return
	}

	// Peer dispatch rides the retrying JSON path: a peer answering 429/503
	// (rebalancing load, briefly draining) is retried honoring Retry-After;
	// a peer that stops answering altogether is dead. The dispatch carries
	// this plan's ring-version fence, so an executor whose live view
	// disagrees answers 409 instead of evaluating.
	cl := *run.n.clients[m.ID]
	cl.Header = cl.Header.Clone()
	cl.Header.Set(HeaderSweepFence, run.fence)
	cl.Header.Set(HeaderRingVersion, run.fence)
	var resp service.SweepResponse
	err := cl.PostJSON(ctx, "/sweep", sub, &resp)
	if err == nil && len(resp.Points) == len(task.indices) {
		run.finish(task, resp.Points, nil)
		return
	}
	if err == nil {
		err = fmt.Errorf("cluster: peer %s answered %d points for a %d-point sub-grid", m.ID, len(resp.Points), len(task.indices))
	}
	if ctx.Err() != nil {
		run.requeue(task)
		return
	}
	var se *service.StatusError
	if errors.As(err, &se) && se.Code == http.StatusConflict {
		// Ring version skew, not peer death: the executor's live view
		// disagrees with the plan's. Abort this plan and let the
		// coordinator re-plan against its current live set — demoting the
		// executor here would manufacture exactly the split the fence
		// exists to prevent.
		run.n.log.Warn("cluster: sweep dispatch fenced off; aborting plan",
			"peer", m.ID, "fence", run.fence, "err", err)
		run.abortSkewed()
		return
	}
	run.n.peerErrors.Add(1)
	run.n.log.Warn("cluster: sweep dispatch failed; requeueing sub-grid", "peer", m.ID, "points", len(task.indices), "err", err)
	run.n.MarkDead(m.ID)
	run.requeue(task)
}

// abortSkewed flags the plan as fenced off and wakes every worker so the
// run drains immediately; the undone points re-plan, they are not failures.
func (run *sweepRun) abortSkewed() {
	run.mu.Lock()
	defer run.mu.Unlock()
	run.skewed = true
	run.cond.Broadcast()
}

// finish records a task's results (or its failure, spread over its points)
// and wakes waiting workers.
func (run *sweepRun) finish(task *sweepTask, pts []service.SweepPoint, err error) {
	run.mu.Lock()
	defer run.mu.Unlock()
	for j, idx := range task.indices {
		if err != nil {
			run.points[idx] = service.FailedSweepPoint(run.req, run.sels[idx], err)
		} else {
			run.points[idx] = pts[j]
		}
		run.done[idx] = true
	}
	run.pending--
	run.cond.Broadcast()
}

// requeue returns an unexecuted task to its owner's queue (dead owners'
// queues are still steal targets, so the task reaches a survivor).
func (run *sweepRun) requeue(task *sweepTask) {
	run.mu.Lock()
	defer run.mu.Unlock()
	run.queues[task.owner] = append(run.queues[task.owner], task)
	run.cond.Broadcast()
}
