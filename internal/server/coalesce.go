package server

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"asrs"
	"asrs/internal/faultinject"
)

// Coalescer is the bounded-latency window collector that turns
// concurrent single queries into engine batch supersteps. The first
// request to arrive opens a window; requests landing inside it pile
// into one pending batch, and when the window elapses — or the batch
// reaches MaxBatch first — the whole batch drains into a single
// Engine.QueryBatch call. The engine's grouping pass then dedups
// byte-identical requests and shares one prepared query shape per
// (composite, a, b) group across what were independent clients
// (DESIGN.md §6), which is where the serving throughput win comes from.
//
// Grouping is arrival-time-driven and therefore nondeterministic — two
// runs of the same traffic can batch differently — but answers are not:
// the engine promises per-request answers bit-identical to individual
// Query calls for any batch composition (the coalescer property test
// pins this).
//
// A window of zero (or MaxBatch ≤ 1) disables coalescing: every request
// dispatches alone, which is the ablation baseline the serve benchmark
// compares against.
type Coalescer struct {
	eng *asrs.Engine
	// base is the coalescer's lifetime context: batch searches run under
	// it (per-request deadlines ride QueryRequest.Ctx), so cancelling it
	// aborts all in-flight engine work at the next superstep boundary.
	base context.Context
	// window (nanoseconds) and maxBatch are atomics: the degradation
	// ladder (degrade.go) steps them down under sustained shedding and
	// back up when calm returns, concurrently with Submits.
	window   atomic.Int64
	maxBatch atomic.Int64
	// onService, when set, observes each dispatch's engine service time
	// (the Retry-After EWMA feed). Set before serving; not synchronized.
	onService func(time.Duration)

	mu      sync.Mutex
	pending []*waiter
	gen     uint64 // increments whenever pending is taken; stales old timers
	closed  bool

	wg sync.WaitGroup // in-flight dispatch goroutines

	// Counters (atomic; see Stats).
	nBatches   atomic.Int64
	nRequests  atomic.Int64
	nMaxFlush  atomic.Int64 // batches flushed by hitting MaxBatch
	widest     atomic.Int64 // largest batch dispatched
	nSingles   atomic.Int64 // uncoalesced dispatches (window=0 path)
	nRejected  atomic.Int64 // submits refused because the coalescer closed
	nDelivered atomic.Int64 // responses handed to waiters
}

// checkDispatchFaults probes the dispatch failpoints: a slow dispatch
// stalls the whole batch (deadline-pressure simulation), a panicking
// one exercises recoverDeliver's conversion to per-waiter errors.
func (c *Coalescer) checkDispatchFaults() {
	if f, ok := faultinject.Check("server.dispatch.slow"); ok && f.Action == faultinject.ActSleep {
		f.Sleep()
	}
	if f, ok := faultinject.Check("server.dispatch.panic"); ok && f.Action == faultinject.ActPanic {
		panic(f.PanicValue())
	}
}

// observeService feeds one dispatch's engine service time to the
// server's EWMA (nil-safe: benches build bare coalescers).
func (c *Coalescer) observeService(d time.Duration) {
	if c.onService != nil {
		c.onService(d)
	}
}

// waiter carries one request and its delivery channel (buffered, so a
// dispatch never blocks on a client that stopped listening).
type waiter struct {
	req  asrs.QueryRequest
	done chan asrs.QueryResponse
}

// NewCoalescer builds a coalescer over the engine. base bounds every
// batch search (typically the server's drain context); window and
// maxBatch bound the added latency and the superstep width.
func NewCoalescer(base context.Context, eng *asrs.Engine, window time.Duration, maxBatch int) *Coalescer {
	if base == nil {
		base = context.Background()
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	c := &Coalescer{eng: eng, base: base}
	c.window.Store(int64(window))
	c.maxBatch.Store(int64(maxBatch))
	return c
}

// SetLimits installs new coalescing limits; in-flight windows keep the
// geometry they started with, later Submits see the new one.
func (c *Coalescer) SetLimits(window time.Duration, maxBatch int) {
	if maxBatch < 1 {
		maxBatch = 1
	}
	c.window.Store(int64(window))
	c.maxBatch.Store(int64(maxBatch))
}

// Limits reports the current coalescing limits.
func (c *Coalescer) Limits() (time.Duration, int) {
	return time.Duration(c.window.Load()), int(c.maxBatch.Load())
}

// Submit enqueues one request and returns the channel its response will
// arrive on (buffered; a response is always delivered unless the
// coalescer was already closed, in which case the channel is closed).
// The request's own Ctx still bounds its search individually.
func (c *Coalescer) Submit(req asrs.QueryRequest) <-chan asrs.QueryResponse {
	w := &waiter{req: req, done: make(chan asrs.QueryResponse, 1)}
	window, maxBatch := c.Limits()
	if window <= 0 || maxBatch <= 1 {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			c.nRejected.Add(1)
			close(w.done)
			return w.done
		}
		c.wg.Add(1)
		c.mu.Unlock()
		c.nSingles.Add(1)
		go func() {
			defer c.wg.Done()
			defer c.recoverDeliver([]*waiter{w})
			c.checkDispatchFaults()
			started := time.Now()
			resp := c.eng.QueryCtx(c.base, w.req)
			c.observeService(time.Since(started))
			// Counter before delivery, matching dispatch: a stats reader
			// triggered by the response must see it counted.
			c.nDelivered.Add(1)
			w.done <- resp
		}()
		return w.done
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.nRejected.Add(1)
		close(w.done)
		return w.done
	}
	c.pending = append(c.pending, w)
	if len(c.pending) >= maxBatch {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.nMaxFlush.Add(1)
		c.dispatch(batch)
		return w.done
	}
	if len(c.pending) == 1 {
		// First request of a fresh window: arm its flush timer. The
		// generation check makes the timer a no-op if the batch already
		// drained through the MaxBatch path (or a later window owns
		// pending by the time the timer fires).
		gen := c.gen
		time.AfterFunc(window, func() { c.flushGen(gen) })
	}
	c.mu.Unlock()
	return w.done
}

// takeLocked detaches the pending batch (caller holds mu) and bumps the
// generation so stale timers recognize their window is gone. The
// dispatch goroutine is registered before the lock is released so a
// concurrent Close cannot miss it.
func (c *Coalescer) takeLocked() []*waiter {
	batch := c.pending
	c.pending = nil
	c.gen++
	c.wg.Add(1)
	return batch
}

// flushGen drains the pending batch if it still belongs to generation
// gen (the window timer's path).
func (c *Coalescer) flushGen(gen uint64) {
	c.mu.Lock()
	if c.gen != gen || len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.dispatch(batch)
}

// dispatch answers one detached batch through a single engine batch
// call and delivers each response to its waiter. The caller has already
// registered the dispatch with wg (takeLocked / the window=0 path).
// recoverDeliver converts a panic on a dispatch goroutine into error
// responses for the batch's waiters. Engine work runs off the handler
// goroutines here, so recoverMiddleware cannot catch it — without this,
// one panicking query would kill the whole daemon instead of failing
// one batch with 500s. Sends are non-blocking: waiters already served
// before the panic keep their answers (their buffered channel is full).
func (c *Coalescer) recoverDeliver(batch []*waiter) {
	v := recover()
	if v == nil {
		return
	}
	log.Printf("server: panic in coalescer dispatch: %v\n%s", v, debug.Stack())
	err := fmt.Errorf("%w: %v", errDispatchPanic, v)
	for _, w := range batch {
		select {
		case w.done <- asrs.QueryResponse{Err: err}:
			c.nDelivered.Add(1)
		default:
		}
	}
}

func (c *Coalescer) dispatch(batch []*waiter) {
	go func() {
		defer c.wg.Done()
		defer c.recoverDeliver(batch)
		c.checkDispatchFaults()
		reqs := make([]asrs.QueryRequest, len(batch))
		for i, w := range batch {
			reqs[i] = w.req
		}
		started := time.Now()
		resps := c.eng.QueryBatch(c.base, nil, reqs)
		c.observeService(time.Since(started))
		// Counters before delivery: a stats reader triggered by the last
		// response (the bench does exactly that) must see this batch.
		c.nBatches.Add(1)
		c.nRequests.Add(int64(len(batch)))
		c.nDelivered.Add(int64(len(batch)))
		for {
			cur := c.widest.Load()
			if int64(len(batch)) <= cur || c.widest.CompareAndSwap(cur, int64(len(batch))) {
				break
			}
		}
		for i, w := range batch {
			w.done <- resps[i]
		}
	}()
}

// Close drains the coalescer: the pending window is flushed immediately
// (waiting requests get answers, not errors), new submits are refused,
// and Close blocks until every in-flight dispatch has delivered — the
// graceful half of shutdown. Cancelling the base context instead (or
// additionally, after a drain deadline) aborts in-flight searches at
// the next kernel superstep boundary.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	var batch []*waiter
	if len(c.pending) > 0 {
		batch = c.takeLocked()
	}
	c.mu.Unlock()
	if batch != nil {
		c.dispatch(batch)
	}
	c.wg.Wait()
}

// CoalescerStats is a point-in-time snapshot of the coalescer counters.
type CoalescerStats struct {
	// Batches and BatchedRequests count coalesced dispatches; their
	// ratio is the realized average batch width.
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
	// FullFlushes counts batches flushed by reaching MaxBatch before the
	// window elapsed (the overload-side flush path).
	FullFlushes int64 `json:"full_flushes"`
	// WidestBatch is the largest batch dispatched so far.
	WidestBatch int64 `json:"widest_batch"`
	// Singles counts uncoalesced dispatches (window=0 configuration).
	Singles int64 `json:"singles"`
	// Rejected counts submits refused after Close.
	Rejected int64 `json:"rejected"`
	// Delivered counts responses handed to waiters.
	Delivered int64 `json:"delivered"`
}

// Stats snapshots the coalescer counters.
func (c *Coalescer) Stats() CoalescerStats {
	return CoalescerStats{
		Batches:         c.nBatches.Load(),
		BatchedRequests: c.nRequests.Load(),
		FullFlushes:     c.nMaxFlush.Load(),
		WidestBatch:     c.widest.Load(),
		Singles:         c.nSingles.Load(),
		Rejected:        c.nRejected.Load(),
		Delivered:       c.nDelivered.Load(),
	}
}
