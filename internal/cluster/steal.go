package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"github.com/csrd-repro/datasync/internal/service"
)

// sweepTask is one owner-aligned sub-grid of a sweep: whole evaluation
// chains (service.SweepChains) as indices into the full point list,
// preferring execution on the node that owns the chains' first keys (so
// results land in — and later hit — the owner's shard of the cluster cache).
// A chain never spans two tasks: the executor collapses a chain's points
// onto its evaluated ones, which needs the whole chain on one node.
type sweepTask struct {
	owner   string
	indices []int
}

// sweepRun coordinates one cluster-wide sweep with work-stealing. One
// worker per live member drains a per-owner task queue; a worker whose own
// queue is empty steals from the longest remaining queue of an owner that
// cannot take it itself now: one executing a task, or one whose worker has
// exited. An idle owner therefore keeps its keys' results. A peer that stops
// answering is marked dead, its in-flight task is requeued, and its worker
// exits — survivors (always including self, which executes in-process and
// cannot die) steal the orphaned tasks, so the sweep completes with a
// correct merged front or fails point-by-point, but never hangs. Every
// point is deterministic, so whichever member evaluates it, under whatever
// view of the ring, produces the same point.
type sweepRun struct {
	n    *Node
	req  service.SweepRequest
	sels []service.GridSel

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]*sweepTask
	pending int // tasks queued or executing; 0 means the sweep is drained
	// busy counts the tasks each member's worker is executing; working
	// marks the members whose worker is running. Only the queue of an
	// owner that is busy or has no worker may be stolen from.
	busy    map[string]int
	working map[string]bool

	points []service.SweepPoint
	done   []bool
}

// coordinateSweep is the cluster entry point for POST /sweep: it shards the
// grid by key ownership, fans the sub-grids across the cluster with work
// stealing, and merges the answers into the same response — byte for byte —
// a single node would produce. Requests the coordinator cannot expand fall
// through to the local handler, which owns the error vocabulary.
func (n *Node) coordinateSweep(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBody))
	r.Body = service.ReplayBody(body, err)
	var req service.SweepRequest
	if err == nil {
		err = service.DecodeStrict(bytes.NewReader(body), &req)
	}
	if err != nil {
		n.serveLocal(w, r, inner)
		return
	}
	// Validate exactly what EvalSweep validates, so an invalid sweep gets
	// the identical local 400 instead of a fan-out of per-point failures.
	if _, err := req.Scheme.Build(); err != nil {
		n.serveLocal(w, r, inner)
		return
	}
	name, sels, keys, err := service.ExpandSweep(req)
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

	// A ring of one (a single-node cluster, or a minority node whose live
	// ring is only itself) sweeps locally: its points are the ones any
	// other node would compute.
	ring := n.ring.Load()
	if ring.Size() == 1 {
		n.serveLocal(w, r, inner)
		return
	}

	run := &sweepRun{
		n:      n,
		req:    req,
		sels:   sels,
		queues: make(map[string][]*sweepTask),
		points: make([]service.SweepPoint, len(sels)),
		done:   make([]bool, len(sels)),
	}
	run.cond = sync.NewCond(&run.mu)

	// Owner-aligned sub-grids: place each chain on the member owning its
	// first point's key on the live ring, then pack each member's chains
	// into tasks of about StealChunk points so stealing has useful
	// granularity.
	byOwner := make(map[string][][]int)
	for _, c := range service.SweepChains(req, sels) {
		id := ring.Owner(keys[c[0]]).ID
		byOwner[id] = append(byOwner[id], c)
	}
	for id, cs := range byOwner {
		for _, idx := range packChains(cs, n.opts.StealChunk) {
			run.queues[id] = append(run.queues[id], &sweepTask{owner: id, indices: idx})
			run.pending++
		}
	}
	run.execute(r.Context(), ring.Members())

	// Every member but self may die; self cannot, so a point is left
	// undone only when the request context ended first.
	for i, ok := range run.done {
		if !ok {
			run.points[i] = service.FailedSweepPoint(req, sels[i],
				fmt.Errorf("sweep abandoned: %v", context.Cause(r.Context())))
		}
	}

	// The counts and the merged front are derived over the full point set
	// by the function a single node uses — sub-grid fronts are never
	// stitched together — and written by the single node's writer.
	w.Header().Set(HeaderNode, n.self.ID)
	if err := service.WriteSweep(w, service.NewSweepResponse(name, run.points)); err != nil {
		n.log.Error("cluster: encode response", "err", err)
	}
}

// packChains packs chains, in order, into tasks of at most size points; a
// chain longer than size is a task of its own.
func packChains(chains [][]int, size int) [][]int {
	var tasks [][]int
	var cur []int
	for _, c := range chains {
		if len(cur) > 0 && len(cur)+len(c) > size {
			tasks = append(tasks, cur)
			cur = nil
		}
		cur = append(cur, c...)
	}
	if len(cur) > 0 {
		tasks = append(tasks, cur)
	}
	return tasks
}

// execute runs one worker per member and waits for the sweep to drain or
// the request context to end; points left undone by a cancellation are
// marked failed by the coordinator, not here.
func (run *sweepRun) execute(ctx context.Context, members []Member) {
	// A context that ends while workers wait must wake them up.
	stop := context.AfterFunc(ctx, func() {
		run.mu.Lock()
		run.cond.Broadcast()
		run.mu.Unlock()
	})
	defer stop()

	run.mu.Lock()
	run.busy = make(map[string]int)
	run.working = make(map[string]bool)
	for _, m := range members {
		run.working[m.ID] = true
	}
	run.mu.Unlock()

	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			run.worker(ctx, m)
		}(m)
	}
	wg.Wait()
}

// worker drains tasks for one member until the sweep completes, the
// context ends, or the member leaves the ring mid-sweep.
func (run *sweepRun) worker(ctx context.Context, m Member) {
	run.mu.Lock()
	defer func() {
		// The member's queue becomes stealable once its worker is gone.
		delete(run.working, m.ID)
		run.cond.Broadcast()
		run.mu.Unlock()
	}()
	for {
		var task *sweepTask
		var stolen bool
		for {
			if run.pending == 0 || ctx.Err() != nil {
				return
			}
			if m.ID != run.n.self.ID && !run.n.ring.Load().Has(m.ID) {
				// The member died (another worker's call failed): its
				// queued tasks stay stealable, but it executes nothing more.
				return
			}
			task, stolen = run.takeLocked(m.ID)
			if task != nil {
				break
			}
			run.cond.Wait()
		}
		// While the member executes, its own queue may be stolen from.
		run.busy[m.ID]++
		run.cond.Broadcast()
		run.mu.Unlock()

		if stolen {
			run.n.steals.Add(1)
		}
		run.runTask(ctx, m, task)

		run.mu.Lock()
		run.busy[m.ID]--
	}
}

// takeLocked pops a task for member id: its own queue first, otherwise a
// steal from the longest queue of another owner that is executing a task
// or has no worker (ID-ordered tiebreak, so concurrent runs disagree only
// on timing, never on which queue is "longest"). An owner that is idle
// with a running worker takes its own queue: its chains' keys are its own,
// so the points it evaluates land in the cache shard that later requests
// for those keys reach. A steal buys parallelism only from an owner that
// cannot start the task now.
func (run *sweepRun) takeLocked(id string) (*sweepTask, bool) {
	if q := run.queues[id]; len(q) > 0 {
		run.queues[id] = q[1:]
		return q[0], false
	}
	owners := make([]string, 0, len(run.queues))
	for o, q := range run.queues {
		if o != id && len(q) > 0 && (run.busy[o] > 0 || !run.working[o]) {
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

	// Peer dispatch posts the sub-request to /internal/sweep on the
	// retrying client: a peer answering 429/503 (rebalancing load, briefly
	// draining) is retried honoring Retry-After; a peer that stops
	// answering altogether, or answers with anything but this sub-grid's
	// point frames, is dead.
	body, err := json.Marshal(sub)
	if err != nil {
		run.finish(task, nil, err)
		return
	}
	cl := *run.n.clients[m.ID]
	cl.Header = cl.Header.Clone()
	cl.Header.Set(HeaderRingVersion, run.n.ring.Load().Version())
	var pts []service.SweepPoint
	err = cl.PostBody(ctx, "/internal/sweep", body, func(b []byte) (err error) {
		pts, err = parsePoints(b, len(task.indices))
		return err
	})
	if err == nil {
		run.finish(task, pts, nil)
		return
	}
	if ctx.Err() != nil {
		run.requeue(task)
		return
	}
	run.n.peerErrors.Add(1)
	run.n.log.Warn("cluster: sweep dispatch failed; requeueing sub-grid", "peer", m.ID, "points", len(task.indices), "err", err)
	run.n.MarkDead(m.ID)
	run.requeue(task)
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

// handleSweepPoints is /internal/sweep: it evaluates a dispatched sub-grid
// (a SweepRequest with explicit Points) and answers its points in point
// frames. It evaluates whatever its live view of the ring: a point is the
// same point on any member.
func (n *Node) handleSweepPoints(w http.ResponseWriter, r *http.Request) {
	body, ok := n.readPeer(w, r, service.MaxBody, "sweep sub-grid")
	if !ok {
		return
	}
	var req service.SweepRequest
	if err := service.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		n.writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode sweep sub-grid: %w", err))
		return
	}
	resp, err := n.srv.EvalSweep(r.Context(), req)
	if err != nil {
		n.writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set(HeaderNode, n.self.ID)
	w.Header().Set("Content-Type", pointsContentType)
	w.Write(pointFrames(resp.Points))
}
