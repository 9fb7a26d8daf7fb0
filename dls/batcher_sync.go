package dls

import (
	"context"
	"fmt"
	"time"
)

// This file is the synchronous (simulation) driving surface of Batcher,
// active when BatcherConfig.OnWindow is set: no goroutines, no timers —
// the owner delivers arrivals with Offer, fires the window timer with
// ExpireWindow when its clock reaches WindowDeadline, and completes
// flushed windows with Window.Complete at whatever (virtual) time the
// service model dictates. Offer, ExpireWindow and Complete run the
// admission, flush and completion steps that Submit, the window timer
// and the drain workers run in the other modes; only the transport
// around them is absent. internal/sim drives millions of virtual
// arrivals through this surface in seconds of wall clock.

// Pending is the reply slot of one synchronously offered submission.
type Pending struct{ sub *submission }

// Done reports whether the submission has been answered (shed, errored
// or completed).
func (p *Pending) Done() bool {
	select {
	case <-p.sub.ready:
		return true
	default:
		return false
	}
}

// Err returns the submission's error (nil until Done, or on success).
func (p *Pending) Err() error { return p.sub.err }

// Result returns the submission's result, if any.
func (p *Pending) Result() *Result { return p.sub.res }

// Class returns the SLO class the submission was admitted under.
func (p *Pending) Class() SLOClass { return p.sub.class }

// Deadline returns the submission's absolute deadline (zero: none, or
// answered at admission).
func (p *Pending) Deadline() time.Time { return p.sub.deadline }

// SetTag attaches an owner value to the submission; Window.Tag returns
// it at completion. The simulator uses it to link completions back to
// its arrival records without a side table.
func (p *Pending) SetTag(v any) { p.sub.tag = v }

// Tag returns the value set with SetTag.
func (p *Pending) Tag() any { return p.sub.tag }

// Size returns the number of submissions in the window.
func (w *Window) Size() int { return len(w.subs) }

// Groups returns the number of deduplicated problems in the window —
// the solves a real SolveBatch would run after dedup.
func (w *Window) Groups() int { return w.groups }

// FlushedAt returns the window's flush time on the batcher clock.
func (w *Window) FlushedAt() time.Time { return w.flushed }

// Request returns the i-th submission's request.
func (w *Window) Request(i int) Request { return w.subs[i].req }

// Class returns the i-th submission's SLO class.
func (w *Window) Class(i int) SLOClass { return w.subs[i].class }

// Deadline returns the i-th submission's absolute deadline (zero: none).
func (w *Window) Deadline(i int) time.Time { return w.subs[i].deadline }

// Tag returns the i-th submission's owner tag (see Pending.SetTag).
func (w *Window) Tag(i int) any { return w.subs[i].tag }

// Complete answers every submission of the window at the current clock
// time: results[i]/errs[i] answer submission i (both may be nil — the
// simulator models cost, not solutions), deadline violations are counted
// per class against the clock, and the adaptive controller observes the
// window's service time (now - FlushedAt) over its dedup groups. Either
// slice may be nil; non-nil slices must have length Size.
func (w *Window) Complete(results []*Result, errs []error) error {
	if results != nil && len(results) != len(w.subs) {
		return fmt.Errorf("dls: Window.Complete: %d results for %d submissions", len(results), len(w.subs))
	}
	if errs != nil && len(errs) != len(w.subs) {
		return fmt.Errorf("dls: Window.Complete: %d errors for %d submissions", len(errs), len(w.subs))
	}
	w.complete(results, errs, w.groups)
	return nil
}

// Offer admits or sheds one submission now, without blocking: it is the
// synchronous-mode counterpart of Submit and shares its admission step.
// The returned Pending is answered immediately on a cache hit, an
// invalid request or a shed, or by Window.Complete after the window
// carrying it is flushed. Admission is bounded by QueueCap outstanding
// (admitted, not yet completed) submissions; beyond it, and for
// deadline-carrying requests the adaptive policy predicts cannot meet
// their SLO, the submission is shed with ErrOverloaded /
// ErrSLOUnmeetable exactly like Submit. tag is attached before any shed
// or flush can observe the submission (see Pending.Tag and
// BatcherConfig.OnShed) — Offer can flush a full window before it
// returns, so setting the tag afterwards would be too late.
func (b *Batcher) Offer(ctx context.Context, req Request, class string, tag any) (*Pending, error) {
	if b.cfg.OnWindow == nil {
		return nil, fmt.Errorf("dls: Offer on an asynchronous batcher (use Submit)")
	}
	c, err := b.resolveClass(class)
	if err != nil {
		return nil, err
	}
	sub, w, _, err := b.admit(ctx, req, c, tag)
	if err != nil {
		return nil, err
	}
	b.handOff(w)
	return &Pending{sub: sub}, nil
}

// WindowDeadline returns the flush time of the currently filling window;
// ok is false when no window is open. The owner is expected to call
// ExpireWindow when its clock reaches the deadline.
func (b *Batcher) WindowDeadline() (time.Time, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.winFlush, len(b.win) > 0
}

// ExpireWindow fires the window timer: the filling window, if any, is
// flushed regardless of fill.
func (b *Batcher) ExpireWindow() {
	b.mu.Lock()
	w := b.flushLocked()
	b.mu.Unlock()
	b.handOff(w)
}

// handOff delivers a window flushed in synchronous mode to the owner. It
// runs outside b.mu, so OnWindow may complete the window at once.
func (b *Batcher) handOff(w *Window) {
	if w == nil {
		return
	}
	w.groups = countGroups(w.subs)
	b.cfg.OnWindow(w)
}

// countGroups counts the deduplicated problems of a window — the number
// of solves its SolveBatch would run — for owners that model the solve
// instead of running it.
func countGroups(win []*submission) int {
	seen := make(map[string]struct{}, len(win))
	for _, sub := range win {
		seen[sub.key] = struct{}{}
	}
	return len(seen)
}
