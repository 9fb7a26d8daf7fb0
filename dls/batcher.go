package dls

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors reported by Batcher.Submit.
var (
	// ErrOverloaded is returned when the batcher's admission queue is full
	// (or, under adaptive admission, when the request provably cannot meet
	// its SLO deadline) and the submission is shed instead of queued.
	// Serving layers map it to 429 Too Many Requests.
	ErrOverloaded = errors.New("dls: batcher overloaded: admission queue full")
	// ErrSLOUnmeetable is the deadline-aware shed: the adaptive admission
	// policy estimated that the request could not complete before its SLO
	// deadline and dropped it instead of burning a solve on a certain
	// violation. It wraps ErrOverloaded, so serving layers that switch on
	// errors.Is(err, ErrOverloaded) keep answering 429.
	ErrSLOUnmeetable = fmt.Errorf("%w: SLO deadline unmeetable", ErrOverloaded)
	// ErrBatcherClosed is returned by Submit after Close.
	ErrBatcherClosed = errors.New("dls: batcher closed")
	// ErrUnknownClass rejects a submission naming an SLO class that is
	// not configured (see BatcherConfig.Classes).
	ErrUnknownClass = errors.New("dls: unknown SLO class")
)

// BatcherConfig configures an admission-window micro-batcher.
type BatcherConfig struct {
	// MaxDelay is the admission window: a flush happens at most MaxDelay
	// after the first request of a window was admitted, trading up to that
	// much latency for batch collapse. MaxDelay = 0 disables
	// micro-batching: every window holds one request, flushed at
	// admission and solved on the submitting goroutine (so up to QueueCap
	// solves run at once, shedding beyond), so a serving layer can expose
	// batching as a knob that can be turned off.
	MaxDelay time.Duration
	// MaxSize flushes a window early once it holds this many requests.
	// Default 64. Under Adaptive admission this is the no-backlog base
	// size; the effective threshold grows toward Adaptive.MaxSize when
	// the drain workers are behind.
	MaxSize int
	// QueueCap bounds admission: at most QueueCap submissions may be
	// admitted and not yet answered. A submission beyond it is shed with
	// ErrOverloaded instead of blocking, so overload surfaces immediately
	// rather than as unbounded latency. Cache hits are answered before
	// admission: they are never admitted, never count toward QueueCap and
	// are never shed. Default 1024.
	QueueCap int
	// Workers bounds how many flushed windows are solved concurrently
	// (each window is one SolveBatch, which fans out over the solver's own
	// worker pool). Default 2: one window solving, one filling.
	Workers int
	// Clock is the time source for the window timer, deadline propagation
	// and SLO accounting. Nil means SystemClock(); internal/sim injects a
	// virtual clock.
	Clock Clock
	// Classes are the SLO classes SubmitSLO resolves against. Optional;
	// plain Submit works regardless.
	Classes []SLOClass
	// Adaptive, when set, replaces the fixed MaxDelay/MaxSize window with
	// the SLO-aware adaptive policy (see AdaptiveConfig). MaxDelay must
	// be > 0 (the adaptive policy is meaningless in direct mode).
	Adaptive *AdaptiveConfig
	// OnFlush, when set, observes the size of every flushed window (a
	// metrics hook). It runs under the batcher's admission lock, on
	// whichever goroutine flushed the window, so it must not block or
	// call back into the batcher. One-request windows of MaxDelay = 0
	// are not micro-batching windows and are not reported.
	OnFlush func(size int)
	// OnShed, when set, observes every shed submission: its class name,
	// owner tag (synchronous mode; nil otherwise) and the shed error
	// (ErrOverloaded, or ErrSLOUnmeetable for deadline-aware drops).
	// Same calling rules as OnFlush.
	OnShed func(class string, tag any, err error)
	// OnWindow switches the batcher into synchronous (simulation) mode:
	// NewBatcher spawns no goroutines and arms no timers, and the owner
	// drives admission explicitly — Offer admits or sheds, WindowDeadline
	// exposes the pending flush time, ExpireWindow fires it, and every
	// flushed window is handed to OnWindow (outside the admission lock)
	// instead of the drain workers; the owner answers it with
	// Window.Complete. Admission, flushing and completion are the code
	// Submit runs; only who solves the window differs. internal/sim
	// replays millions of virtual arrivals through this surface.
	OnWindow func(*Window)
}

// withDefaults fills the zero fields.
func (cfg BatcherConfig) withDefaults() BatcherConfig {
	if cfg.MaxSize <= 0 {
		cfg.MaxSize = 64
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock()
	}
	return cfg
}

// BatcherStats is a point-in-time view of a batcher's admission state; the
// cumulative counters (windows, batched requests, shed submissions) live
// in the owning solver's Stats.
type BatcherStats struct {
	// QueueDepth is the number of admitted submissions in flushed windows
	// not yet answered: the backlog a new window queues behind (serving
	// layers derive Retry-After from it).
	QueueDepth int
	// WindowFill is the size of the currently filling window.
	WindowFill int
}

// submission is one queued request and its reply slot.
type submission struct {
	ctx      context.Context
	req      Request // prepared (validated, defaults applied)
	key      string  // req's cache key
	class    SLOClass
	deadline time.Time // zero: best effort
	res      *Result
	err      error
	ready    chan struct{}
	tag      any // owner value (synchronous mode; see Pending.SetTag)

	// Tracing (internal/obs): the traces riding ctx at submit time, and
	// the batcher-clock timestamps bracketing the depth-0 stages —
	// queue_wait (submit → admitted into a window), window_wait (admitted
	// → flush) and solve (flush → answer). All zero when no trace rides
	// the context: the hot path then skips every stage call.
	traces   []*obs.Trace
	submitAt time.Time
	admitAt  time.Time
	flushAt  time.Time
}

// stage records a depth-0 stage on every trace following the submission.
func (sub *submission) stage(name string, start, end time.Time, attrs ...obs.Attr) {
	for _, t := range sub.traces {
		t.StageAt(0, name, start, end, attrs...)
	}
}

// Batcher is an admission-window micro-batcher over one Solver: Submit
// queues a request into a bounded window that is flushed — when the size
// threshold is reached or the window delay has passed since the window
// opened — as a single SolveBatch call, so chain-shaped requests arriving
// together collapse into the engine's structure-of-arrays prepass and
// duplicate requests dedupe against each other, instead of solving one by
// one. Callers that can see their own concurrency (SolveStream) bypass
// the window for requests travelling alone; every request that reaches
// the Batcher's window waits it out, which is what makes its batch sizes
// stable under load.
//
// A request whose result is already in the solver's cache never reaches
// the window: a schedule is a deterministic function of the request, so
// a cache hit is the final answer and batching it could gain nothing.
// Admission looks every request up once and answers hits (and invalid
// requests) on the spot; only misses queue.
//
// One admission state machine serves three modes, which differ only in
// who solves a flushed window: the Workers drain goroutines (the
// default), the submitting goroutine (MaxDelay = 0), or the owner
// (synchronous mode, see BatcherConfig.OnWindow).
//
// With BatcherConfig.Adaptive set, the window delay and size adapt to
// observed backlog and solve cost, and requests that provably cannot meet
// their SLO deadline are shed early; see AdaptiveConfig.
//
// A Batcher is safe for concurrent use. Close drains: admitted requests
// are still solved and answered, then the workers exit.
type Batcher struct {
	s     *Solver
	cfg   BatcherConfig
	clock Clock
	adapt *adaptive // nil unless cfg.Adaptive

	// mu guards admission: the filling window, and the transitions of
	// closed, which the hit path reads without it.
	mu       sync.Mutex
	closed   atomic.Bool
	win      []*submission // the filling window
	winSize  int           // its early-flush threshold
	winFlush time.Time     // its scheduled flush
	winSeq   uint64        // flushes so far; a stale flush timer compares it
	timer    Timer         // drain mode: fires the window's flush

	// outstanding counts admitted submissions not yet answered, the
	// quantity QueueCap bounds. Completion decrements it without mu.
	outstanding atomic.Int64

	windows chan *Window   // drain mode: flushed windows for the workers
	wg      sync.WaitGroup // drain workers, or direct-mode solves in flight
}

// NewBatcher builds an admission-window micro-batcher over the solver.
func (s *Solver) NewBatcher(cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{s: s, cfg: cfg, clock: cfg.Clock}
	if cfg.Adaptive != nil && cfg.MaxDelay > 0 {
		b.adapt = newAdaptive(*cfg.Adaptive, cfg.Clock)
	}
	if cfg.OnWindow == nil && cfg.MaxDelay > 0 {
		// Outstanding submissions, and so windows, never exceed QueueCap:
		// a flush sends here under mu without blocking.
		b.windows = make(chan *Window, cfg.QueueCap)
		b.wg.Add(cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			go b.drain()
		}
	}
	return b
}

// direct reports whether batching is off (MaxDelay = 0 outside
// synchronous mode): every window is one request, solved by its
// submitter.
func (b *Batcher) direct() bool { return b.cfg.OnWindow == nil && b.cfg.MaxDelay <= 0 }

// AdaptiveState snapshots the adaptive admission controller; ok reports
// false when the batcher runs the fixed window.
func (b *Batcher) AdaptiveState() (AdaptiveState, bool) {
	if b.adapt == nil {
		return AdaptiveState{}, false
	}
	return b.adapt.state(), true
}

// Class resolves a configured SLO class by name ("" is the zero,
// best-effort class); the error wraps ErrUnknownClass for names not in
// BatcherConfig.Classes.
func (b *Batcher) Class(name string) (SLOClass, error) { return b.resolveClass(name) }

// resolveClass finds a configured SLO class by name ("" is the zero,
// best-effort class).
func (b *Batcher) resolveClass(name string) (SLOClass, error) {
	if name == "" {
		return SLOClass{}, nil
	}
	for _, c := range b.cfg.Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return SLOClass{}, fmt.Errorf("%w %q", ErrUnknownClass, name)
}

// newSubmission builds the submission of a prepared request that missed
// the cache, under its class. The class deadline (measured on the
// batcher clock) is recorded for SLO shedding and violation accounting;
// where the batcher solves — every mode but the synchronous one, whose
// owner models the solve — it is also merged into the context so the
// solve is cancelled at the deadline. A context that already carries an
// earlier deadline keeps it.
func (b *Batcher) newSubmission(ctx context.Context, req Request, key string, class SLOClass, tag any) (*submission, context.CancelFunc) {
	sub := &submission{ctx: ctx, req: req, key: key, class: class, tag: tag, ready: make(chan struct{})}
	cancel := context.CancelFunc(func() {})
	if class.Deadline > 0 {
		sub.deadline = b.clock.Now().Add(class.Deadline)
		if b.cfg.OnWindow == nil {
			sub.ctx, cancel = b.clock.ContextWithDeadline(ctx, sub.deadline)
		}
	} else if d, ok := ctx.Deadline(); ok {
		sub.deadline = d
	}
	return sub, cancel
}

// answered is the reply slot of every submission answered at admission,
// before any window: it is closed from the start.
var answered = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// admit is the one admission step of Submit and Offer. A closed batcher
// refuses the request with ErrBatcherClosed, and a request whose context
// is already done is answered with ctx.Err(), so the adaptive estimates
// only see live traffic. Every other request is looked up once
// (Solver.lookup): an invalid request is answered with its validation
// error, and a cache hit with its result — recording one depth-0
// cache_hit stage when traced — without entering a window, counting
// toward QueueCap or touching the adaptive controller. A miss goes on to
// admitLocked with its prepared request and cache key. The returned
// window, if any, is the caller's to deliver (see flushLocked); cancel
// releases the submission's deadline context.
func (b *Batcher) admit(ctx context.Context, req Request, class SLOClass, tag any) (sub *submission, w *Window, cancel context.CancelFunc, err error) {
	if b.closed.Load() {
		return nil, nil, nil, ErrBatcherClosed
	}
	noop := func() {}
	if err := ctx.Err(); err != nil {
		return &submission{ctx: ctx, req: req, class: class, tag: tag, err: err, ready: answered}, nil, noop, nil
	}
	var submitAt time.Time
	traces := obs.Traces(ctx)
	if len(traces) > 0 {
		submitAt = b.clock.Now()
	}
	prepared, key, hit, err := b.s.lookup(ctx, req, true)
	if err != nil || hit != nil {
		sub = &submission{ctx: ctx, req: prepared, class: class, tag: tag, res: hit, err: err, ready: answered}
		if hit != nil && len(traces) > 0 {
			sub.traces = traces
			sub.stage("cache_hit", submitAt, b.clock.Now())
		}
		return sub, nil, noop, nil
	}
	sub, cancel = b.newSubmission(ctx, prepared, key, class, tag)
	sub.traces, sub.submitAt = traces, submitAt
	b.mu.Lock()
	w, err = b.admitLocked(sub)
	if w != nil && b.direct() {
		b.wg.Add(1) // Close waits out this direct solve
	}
	b.mu.Unlock()
	if err != nil {
		cancel()
		return nil, nil, nil, err
	}
	return sub, w, cancel, nil
}

// recordShed counts one shed submission (per class too) and answers it.
func (b *Batcher) recordShed(sub *submission, err error) {
	b.s.shed.Add(1)
	if errors.Is(err, ErrSLOUnmeetable) {
		b.s.shedSLO.Add(1)
	}
	b.s.shedByClass.Add(sub.class.Name, 1)
	if b.cfg.OnShed != nil {
		b.cfg.OnShed(sub.class.Name, sub.tag, err)
	}
	sub.err = err
	close(sub.ready)
}

// Submit answers req from the solver's cache at once when it can;
// otherwise it queues req and blocks until its window is solved,
// returning the request's own result (duplicates within a window are
// deduplicated by SolveBatch and come back marked Cached). If admission
// is full a request that missed the cache is shed immediately with
// ErrOverloaded. A ctx that expires while the request is queued abandons
// it (the flush skips submissions whose context is already done); a ctx
// that expires mid-solve returns ctx.Err() without waiting for the
// window.
func (b *Batcher) Submit(ctx context.Context, req Request) (*Result, error) {
	return b.submitClass(ctx, req, SLOClass{})
}

// SubmitSLO is Submit under a named SLO class (see BatcherConfig.Classes):
// the class deadline bounds the solve, drives the adaptive policy's
// deadline-aware shedding, and keys the per-class shed/violation counters
// in the solver's Stats.
func (b *Batcher) SubmitSLO(ctx context.Context, req Request, class string) (*Result, error) {
	c, err := b.resolveClass(class)
	if err != nil {
		return nil, err
	}
	return b.submitClass(ctx, req, c)
}

func (b *Batcher) submitClass(ctx context.Context, req Request, class SLOClass) (*Result, error) {
	if b.cfg.OnWindow != nil {
		return nil, fmt.Errorf("dls: Submit on a synchronous batcher (drive it with Offer)")
	}
	sub, w, cancel, err := b.admit(ctx, req, class, nil)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if w != nil {
		// Batching is off: the one-request window solves right here.
		b.solveWindow(w)
		b.wg.Done()
		return sub.res, sub.err
	}
	select {
	case <-sub.ready:
		return sub.res, sub.err
	case <-sub.ctx.Done():
		return nil, sub.ctx.Err()
	}
}

// admitLocked admits a cache miss into the filling window, under b.mu
// (see admit). Beyond QueueCap outstanding submissions, or when the
// adaptive policy predicts its SLO deadline cannot be met, the submission
// is shed. Otherwise it joins the filling window, opening one if needed,
// and a window that reaches its size threshold flushes at once. The
// returned window, if any, is the caller's to deliver (see flushLocked).
func (b *Batcher) admitLocked(sub *submission) (*Window, error) {
	if b.closed.Load() {
		return nil, ErrBatcherClosed
	}
	if b.outstanding.Load() >= int64(b.cfg.QueueCap) {
		b.recordShed(sub, ErrOverloaded)
		return nil, nil
	}
	if !b.admitOrShed(sub, b.winFlush) {
		return nil, nil
	}
	b.outstanding.Add(1)
	if len(sub.traces) > 0 {
		sub.admitAt = b.clock.Now()
	}
	b.win = append(b.win, sub)
	if len(b.win) == 1 {
		b.winSize = b.windowSize()
		delay := b.windowDelay(sub)
		b.winFlush = b.clock.Now().Add(delay)
		if b.windows != nil && b.winSize > 1 {
			b.armFlush(delay)
		}
	}
	if len(b.win) >= b.winSize {
		return b.flushLocked(), nil
	}
	return nil, nil
}

// armFlush schedules the filling window's flush in drain mode. The timer
// can fire after its window already left by size (Stop lost the race);
// the flush sequence number turns that stale firing into a no-op.
func (b *Batcher) armFlush(delay time.Duration) {
	seq := b.winSeq
	b.timer = b.clock.AfterFunc(delay, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.winSeq == seq {
			b.flushLocked()
		}
	})
}

// flushLocked closes the filling window, under b.mu: submissions the
// adaptive policy now finds doomed are shed, the flush is counted and
// traced, and the survivors leave as one Window. In drain mode the window
// goes to the workers here; otherwise it is returned for the caller to
// deliver after unlocking — to OnWindow in synchronous mode, to the
// submitting goroutine's solve in direct mode.
func (b *Batcher) flushLocked() *Window {
	if len(b.win) == 0 {
		return nil
	}
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.winSeq++
	win := b.dropDoomed(b.win)
	b.outstanding.Add(-int64(len(b.win) - len(win)))
	b.win, b.winFlush = nil, time.Time{}
	if len(win) == 0 {
		return nil
	}
	var id uint64
	if !b.direct() {
		id = b.countFlush(win)
	}
	b.stageFlush(win, id)
	w := &Window{b: b, subs: win, flushed: b.clock.Now()}
	if b.windows != nil {
		b.windows <- w
		return nil
	}
	return w
}

// accountCompletion records the SLO outcome of one answered submission.
func (b *Batcher) accountCompletion(sub *submission, now time.Time) {
	if sub.deadline.IsZero() || sub.err != nil {
		return
	}
	if now.After(sub.deadline) {
		b.s.violationsByClass.Add(sub.class.Name, 1)
	}
}

// Close stops admission and drains: the filling window is flushed, and
// every admitted submission is still solved and answered before Close
// returns. Further submissions report ErrBatcherClosed. In synchronous
// mode the filling window goes to OnWindow; completing it stays with the
// owner.
func (b *Batcher) Close() {
	b.mu.Lock()
	var w *Window
	if !b.closed.Load() {
		b.closed.Store(true)
		w = b.flushLocked()
		if b.windows != nil {
			close(b.windows)
		}
	}
	b.mu.Unlock()
	b.handOff(w)
	b.wg.Wait()
}

// Stats returns the batcher's admission gauges.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	fill := len(b.win)
	return BatcherStats{QueueDepth: int(b.outstanding.Load()) - fill, WindowFill: fill}
}

// windowDelay decides the admission delay for a window opened by sub.
func (b *Batcher) windowDelay(sub *submission) time.Duration {
	if b.adapt != nil {
		return b.adapt.windowDelay(b.clock.Now(), sub.deadline)
	}
	return b.cfg.MaxDelay
}

// windowSize decides the early-flush threshold for the current window.
func (b *Batcher) windowSize() int {
	switch {
	case b.direct():
		return 1
	case b.adapt != nil:
		return b.adapt.windowSize(b.cfg.MaxSize)
	}
	return b.cfg.MaxSize
}

// admitOrShed applies the deadline-aware admission check to a
// submission: a deadline-carrying request whose estimated completion
// (remaining window wait, backlog of windows ahead, its own solve)
// already exceeds its deadline is shed now rather than solved into a
// certain violation. flushAt is the scheduled flush of the filling
// window (zero when this submission opens one). Reports whether the
// submission was admitted.
func (b *Batcher) admitOrShed(sub *submission, flushAt time.Time) bool {
	if b.adapt == nil || sub.deadline.IsZero() {
		return true
	}
	now := b.clock.Now()
	if b.adapt.estCompletion(now, flushAt, b.cfg.Workers).After(sub.deadline) {
		b.recordShed(sub, ErrSLOUnmeetable)
		return false
	}
	return true
}

// dropDoomed re-applies the deadline check at flush time — the estimate
// may have soured while the window filled — and sheds submissions that
// can no longer make their deadline. Returns the surviving window.
func (b *Batcher) dropDoomed(win []*submission) []*submission {
	if b.adapt == nil {
		return win
	}
	now := b.clock.Now()
	est := b.adapt.estCompletion(now, time.Time{}, b.cfg.Workers)
	live := win[:0]
	for _, sub := range win {
		if !sub.deadline.IsZero() && est.After(sub.deadline) {
			b.recordShed(sub, ErrSLOUnmeetable)
			continue
		}
		live = append(live, sub)
	}
	return live
}

// countFlush runs the flush bookkeeping (counters, hooks, adaptive
// backlog) for a micro-batching window, and returns the window's id (the
// solver-wide flush sequence number, which trace stages annotate).
func (b *Batcher) countFlush(win []*submission) uint64 {
	if b.cfg.OnFlush != nil {
		b.cfg.OnFlush(len(win))
	}
	id := b.s.windows.Add(1)
	if len(win) >= 2 {
		b.s.batchedWindows.Add(1)
		b.s.batchedRequests.Add(uint64(len(win)))
	}
	if b.adapt != nil {
		b.adapt.inFlight.Add(1)
	}
	return id
}

// stageFlush records the admission stages of a flushed window on every
// traced submission — queue_wait (submit → admission) and, for a counted
// window (id > 0), window_wait (admission → this flush, annotated with
// the window id and fill) — and stamps flushAt, where the solve stage
// picks up.
func (b *Batcher) stageFlush(win []*submission, id uint64) {
	var now time.Time
	for _, sub := range win {
		if len(sub.traces) == 0 {
			continue
		}
		if now.IsZero() {
			now = b.clock.Now()
		}
		sub.flushAt = now
		sub.stage("queue_wait", sub.submitAt, sub.admitAt)
		if id > 0 {
			sub.stage("window_wait", sub.admitAt, now,
				obs.Uint64("window", id), obs.Int("fill", len(win)))
		}
	}
}

// Window is one flushed admission window. In synchronous mode it is
// handed to BatcherConfig.OnWindow: the owner inspects its composition
// (size, dedup groups, classes) to model service time, then answers it
// with Complete. In the other modes the batcher solves it itself.
type Window struct {
	b       *Batcher
	subs    []*submission
	groups  int // synchronous mode: dedup groups, set at hand-off
	flushed time.Time
}

// complete answers every submission of the window at the current clock
// time — the one completion path of all modes. results[i]/errs[i] answer
// submission i; a nil slice leaves what the submissions already hold.
// Traced submissions get their solve stage, deadline violations are
// counted per class, and the adaptive controller observes the window's
// service time (flush to now) over its dedup groups. The controller and
// the admission bound release the window before any submitter wakes, so
// a caller that resubmits on its answer finds the capacity it freed.
func (w *Window) complete(results []*Result, errs []error, groups int) {
	b := w.b
	now := b.clock.Now()
	for i, sub := range w.subs {
		if results != nil {
			sub.res = results[i]
		}
		if errs != nil {
			sub.err = errs[i]
		}
		if len(sub.traces) > 0 {
			sub.stage("solve", sub.flushAt, now)
		}
		b.accountCompletion(sub, now)
	}
	if b.adapt != nil {
		b.adapt.inFlight.Add(-1)
		b.adapt.observeSolve(now.Sub(w.flushed), groups)
	}
	b.outstanding.Add(-int64(len(w.subs)))
	for _, sub := range w.subs {
		close(sub.ready)
	}
}

// drain solves flushed windows.
func (b *Batcher) drain() {
	defer b.wg.Done()
	for w := range b.windows {
		b.solveWindow(w)
	}
}

// solveWindow answers every submission of one window with a single
// SolveBatch call. Submissions whose context is already done are answered
// with their ctx.Err() without solving; the batch context propagates the
// callers' deadlines and cancellations (see windowContext). The adaptive
// controller is charged with the solver's own dedup group count.
func (b *Batcher) solveWindow(w *Window) {
	live := make([]*submission, 0, len(w.subs))
	for _, sub := range w.subs {
		if err := sub.ctx.Err(); err != nil {
			sub.err = err
			continue
		}
		live = append(live, sub)
	}
	groups := 0
	if len(live) > 0 {
		ctx, cancel := b.windowContext(live)
		reqs := make([]Request, len(live))
		keys := make([]string, len(live))
		var traces [][]*obs.Trace
		for i, sub := range live {
			reqs[i], keys[i] = sub.req, sub.key
			if len(sub.traces) > 0 {
				if traces == nil {
					traces = make([][]*obs.Trace, len(live))
				}
				traces[i] = sub.traces
			}
		}
		var (
			results []*Result
			errs    []error
		)
		results, errs, groups = b.s.solveBatchTraced(ctx, reqs, keys, traces)
		if cancel != nil {
			cancel()
		}
		for i, sub := range live {
			sub.res, sub.err = results[i], errs[i]
		}
	}
	w.complete(nil, nil, groups)
}

// windowContext derives the context a window is solved under. A window
// whose submissions share one context (the SolveStream case) solves under
// it directly. A mixed window solves under a derived context that carries
// the latest deadline across the window — no caller's budget is silently
// extended past the solver timeout — and is cancelled once every caller
// has gone away, so abandoned windows stop burning CPU. If any submission
// is uncancellable (context.Background), the window is too.
func (b *Batcher) windowContext(live []*submission) (context.Context, context.CancelFunc) {
	shared := live[0].ctx
	for _, sub := range live[1:] {
		if sub.ctx != shared {
			shared = nil
			break
		}
	}
	if shared != nil {
		return shared, nil
	}
	var latest time.Time
	haveDeadlines := true
	for _, sub := range live {
		if sub.ctx.Done() == nil {
			// An uncancellable caller keeps the window alive regardless of
			// the others, so there is nothing to watch.
			return context.Background(), nil
		}
		if d, ok := sub.ctx.Deadline(); ok {
			if d.After(latest) {
				latest = d
			}
		} else {
			haveDeadlines = false
		}
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if haveDeadlines {
		ctx, cancel = b.clock.ContextWithDeadline(context.Background(), latest)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	// Cancel the window once every caller is gone. AfterFunc registrations
	// instead of watcher goroutines: windows flush at serving rate, and
	// the returned cleanup drops the registrations with the window.
	remaining := new(atomic.Int64)
	remaining.Store(int64(len(live)))
	stops := make([]func() bool, len(live))
	for i, sub := range live {
		stops[i] = context.AfterFunc(sub.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		})
	}
	cleanup := func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
	return ctx, cleanup
}

// String renders the batcher configuration compactly (for logs).
func (b *Batcher) String() string {
	mode := "fixed"
	if b.adapt != nil {
		mode = "adaptive"
	}
	return fmt.Sprintf("batcher(window=%v size=%d queue=%d workers=%d mode=%s)",
		b.cfg.MaxDelay, b.cfg.MaxSize, b.cfg.QueueCap, b.cfg.Workers, mode)
}
