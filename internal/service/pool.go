package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Submit when the bounded job queue is at
// capacity — the backpressure signal the HTTP layer turns into 429 +
// Retry-After instead of unbounded goroutine growth.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// Pool is a bounded worker pool: a fixed number of workers consuming a
// fixed-capacity queue. Every simulation and verification job the service
// executes goes through it, which bounds concurrent simulator memory and
// keeps overload explicit (ErrQueueFull) rather than implicit (collapse).
type Pool struct {
	mu       sync.RWMutex // guards draining vs. queue close
	draining bool
	jobs     chan func(context.Context)
	workers  int
	timeout  time.Duration
	wg       sync.WaitGroup

	inflight  atomic.Int64
	completed atomic.Int64
}

// NewPool starts workers goroutines consuming a queue of capacity queueCap.
// jobTimeout bounds each job's context (0 = no deadline): a job that waited
// in the queue past its deadline observes a cancelled context and should
// not start expensive work.
func NewPool(workers, queueCap int, jobTimeout time.Duration) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	p := &Pool{
		jobs:    make(chan func(context.Context), queueCap),
		workers: workers,
		timeout: jobTimeout,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for fn := range p.jobs {
		p.inflight.Add(1)
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if p.timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, p.timeout)
		}
		fn(ctx)
		cancel()
		p.inflight.Add(-1)
		p.completed.Add(1)
	}
}

// Submit enqueues a job without blocking. It returns ErrQueueFull when the
// queue is at capacity and ErrDraining after Drain has begun. The job's
// context carries the pool's per-job timeout, measured from the moment a
// worker picks the job up.
func (p *Pool) Submit(fn func(context.Context)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.draining {
		return ErrDraining
	}
	select {
	case p.jobs <- fn:
		return nil
	default:
		return ErrQueueFull
	}
}

// SubmitWait is Submit with patience: on a full queue it retries with a
// short pause until accepted or ctx expires. The sweep engine uses it so a
// large grid shares the pool with interactive traffic instead of failing or
// bypassing the bound.
func (p *Pool) SubmitWait(ctx context.Context, fn func(context.Context)) error {
	for {
		err := p.Submit(fn)
		if err == nil || errors.Is(err, ErrDraining) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// submitMode is how a job waits for a queue slot.
type submitMode bool

const (
	failFast submitMode = false // Submit: a full queue is ErrQueueFull (429)
	patient  submitMode = true  // SubmitWait: wait for a slot until ctx ends
)

// await runs job on p, submitted in mode, and waits for its result or for
// ctx to end. A job whose context expired while it sat in the queue does
// not run. A request that gives up leaves its job running (every job is
// bounded) and drops the result.
func await[T any](ctx context.Context, p *Pool, mode submitMode, job func() (T, error)) (res T, err error) {
	type outcome struct {
		res T
		err error
	}
	done := make(chan outcome, 1)
	fn := func(jobCtx context.Context) {
		if err := jobCtx.Err(); err != nil {
			done <- outcome{err: fmt.Errorf("service: job expired in queue: %w", err)}
			return
		}
		res, err := job()
		done <- outcome{res, err}
	}
	if mode == patient {
		err = p.SubmitWait(ctx, fn)
	} else {
		err = p.Submit(fn)
	}
	if err != nil {
		return res, err
	}
	select {
	case o := <-done:
		return o.res, o.err
	case <-ctx.Done():
		return res, fmt.Errorf("service: request cancelled while awaiting job: %w", ctx.Err())
	}
}

// Drain stops accepting jobs and waits until every queued and in-flight job
// has finished, or ctx expires. It is idempotent.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.jobs)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueueDepth is the number of jobs waiting for a worker.
func (p *Pool) QueueDepth() int { return len(p.jobs) }

// QueueCap is the queue capacity.
func (p *Pool) QueueCap() int { return cap(p.jobs) }

// Workers is the worker count.
func (p *Pool) Workers() int { return p.workers }

// InFlight is the number of jobs currently executing.
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// Completed is the number of jobs finished since start.
func (p *Pool) Completed() int64 { return p.completed.Load() }
