// Package sim is a deterministic discrete-event traffic simulator over
// the real dls admission machinery: it replays arrival processes
// (Poisson, Markov-modulated bursts, Pareto heavy tails, captured
// traces) against a dls.Batcher running in synchronous mode under a
// virtual clock, with solve latency drawn from a calibrated cost model —
// so queueing behaviour at millions-of-users scale (window dynamics,
// shedding, SLO violations, the adaptive admission policy) is explored
// in seconds of wall clock. Same seed + scenario ⇒ byte-identical event
// log and report.
package sim

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"repro/dls"
)

// Epoch is where virtual time starts: an arbitrary fixed instant so
// reports and event logs are reproducible across runs and machines.
var Epoch = time.Unix(0, 0).UTC()

// Clock is a virtual dls.Clock: time only moves when Advance is called,
// and timers fire synchronously — in (time, registration) order — from
// inside Advance. It is safe for concurrent use, so it can also drive
// the goroutine-mode Batcher in tests (see WaitTimers); the simulator's
// single-threaded event loop uses it purely as a settable now.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
	armed  *sync.Cond // broadcast on every arm/disarm, for WaitTimers
}

// NewClock returns a virtual clock reading Epoch.
func NewClock() *Clock {
	c := &Clock{now: Epoch}
	c.armed = sync.NewCond(&c.mu)
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d, firing every timer due on the
// way in (time, registration) order. Timer functions (AfterFunc,
// deadline-context expiries) run synchronously on the caller's
// goroutine; channel timers have their tick delivered before Advance
// returns.
func (c *Clock) Advance(d time.Duration) { c.AdvanceTo(c.Now().Add(d)) }

// AdvanceTo moves virtual time forward to t (no-op if t is in the past).
func (c *Clock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	for len(c.timers) > 0 && !c.timers[0].at.After(t) {
		vt := heap.Pop(&c.timers).(*vtimer)
		if vt.stopped {
			continue
		}
		vt.stopped = true
		c.now = vt.at
		c.armed.Broadcast()
		c.mu.Unlock()
		vt.fire(vt.at)
		c.mu.Lock()
	}
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}

// NextTimer returns the due time of the earliest pending timer.
func (c *Clock) NextTimer() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) > 0 {
		if c.timers[0].stopped {
			heap.Pop(&c.timers)
			continue
		}
		return c.timers[0].at, true
	}
	return time.Time{}, false
}

// WaitTimers blocks until at least n timers are pending or the (real)
// timeout elapses, reporting whether the count was reached. It is the
// synchronization hook tests need when the goroutine-mode Batcher runs
// on a virtual clock: wait for Submit to arm the window timer, then
// Advance deterministically.
func (c *Clock) WaitTimers(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.armed.Broadcast()
		c.mu.Unlock()
	})
	defer wake.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.pendingLocked() < n {
		if time.Now().After(deadline) {
			return false
		}
		c.armed.Wait()
	}
	return true
}

func (c *Clock) pendingLocked() int {
	n := 0
	for _, vt := range c.timers {
		if !vt.stopped {
			n++
		}
	}
	return n
}

// arm registers a timer at the given virtual time. Timers due now or in
// the past still wait for the next Advance — virtual time never moves on
// its own.
func (c *Clock) arm(at time.Time, ch chan time.Time, fn func()) *vtimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	vt := &vtimer{at: at, seq: c.seq, ch: ch, fn: fn}
	heap.Push(&c.timers, vt)
	c.armed.Broadcast()
	return vt
}

// NewTimer implements dls.Clock.
func (c *Clock) NewTimer(d time.Duration) dls.Timer {
	ch := make(chan time.Time, 1)
	vt := c.arm(c.Now().Add(d), ch, nil)
	return &virtualTimer{c: c, vt: vt}
}

// AfterFunc implements dls.Clock; fn runs synchronously from Advance.
func (c *Clock) AfterFunc(d time.Duration, fn func()) dls.Timer {
	vt := c.arm(c.Now().Add(d), nil, fn)
	return &virtualTimer{c: c, vt: vt}
}

// ContextWithDeadline implements dls.Clock: the context is done with
// context.DeadlineExceeded when virtual time reaches the deadline.
func (c *Clock) ContextWithDeadline(parent context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	ctx, expire, cancel := dls.NewDeadlineContext(parent, deadline)
	if !deadline.After(c.Now()) {
		expire()
		return ctx, cancel
	}
	vt := c.arm(deadline, nil, expire)
	return ctx, func() {
		c.stop(vt)
		cancel()
	}
}

func (c *Clock) stop(vt *vtimer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	was := !vt.stopped
	vt.stopped = true
	if was {
		c.armed.Broadcast()
	}
	return was
}

// vtimer is one pending virtual timer.
type vtimer struct {
	at      time.Time
	seq     uint64
	index   int
	stopped bool
	ch      chan time.Time
	fn      func()
}

func (vt *vtimer) fire(at time.Time) {
	if vt.fn != nil {
		vt.fn()
		return
	}
	select {
	case vt.ch <- at:
	default:
	}
}

// virtualTimer adapts a vtimer to dls.Timer.
type virtualTimer struct {
	c  *Clock
	vt *vtimer
}

func (t *virtualTimer) C() <-chan time.Time { return t.vt.ch }
func (t *virtualTimer) Stop() bool          { return t.c.stop(t.vt) }

// timerHeap orders pending timers by (time, registration sequence), so
// simultaneous timers fire in the order they were armed — the property
// the determinism tests pin.
type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	vt := x.(*vtimer)
	vt.index = len(*h)
	*h = append(*h, vt)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	vt := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return vt
}
