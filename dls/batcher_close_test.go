package dls_test

// Shutdown-hardening tests for the admission-window batcher: Close must
// be idempotent however many times and from however many goroutines it
// is called, Submit/Offer after Close must answer a deterministic
// ErrBatcherClosed (never a panic, never a hang), and submissions racing
// Close must either complete or report ErrBatcherClosed — in all three
// batcher modes (goroutine, direct, synchronous), on the virtual clock
// so the races are driven without sleeps.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/sim"
)

func closeTestRequest() dls.Request {
	return dls.Request{Platform: testPlatform(), Strategy: dls.StrategyFIFO, Load: 100}
}

func TestBatcherDoubleCloseAllModes(t *testing.T) {
	solver := mustSolver(t)
	modes := map[string]dls.BatcherConfig{
		"goroutine": {MaxDelay: time.Millisecond, Clock: sim.NewClock()},
		"direct":    {MaxDelay: 0, Clock: sim.NewClock()},
		"sync":      {MaxDelay: time.Millisecond, Clock: sim.NewClock(), OnWindow: func(w *dls.Window) { w.Complete(nil, make([]error, w.Size())) }},
	}
	for name, cfg := range modes {
		t.Run(name, func(t *testing.T) {
			b := solver.NewBatcher(cfg)
			// Sequential double Close.
			b.Close()
			b.Close()
			// Concurrent Close from many goroutines on a fresh batcher.
			b2 := solver.NewBatcher(cfg)
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b2.Close()
				}()
			}
			wg.Wait()
		})
	}
}

func TestBatcherSubmitAfterClose(t *testing.T) {
	solver := mustSolver(t)
	for name, cfg := range map[string]dls.BatcherConfig{
		"goroutine": {MaxDelay: time.Millisecond, Clock: sim.NewClock()},
		"direct":    {MaxDelay: 0, Clock: sim.NewClock()},
	} {
		t.Run(name, func(t *testing.T) {
			b := solver.NewBatcher(cfg)
			b.Close()
			for i := 0; i < 3; i++ {
				if _, err := b.Submit(context.Background(), closeTestRequest()); !errors.Is(err, dls.ErrBatcherClosed) {
					t.Fatalf("Submit %d after Close: err = %v, want ErrBatcherClosed", i, err)
				}
			}
		})
	}
}

func TestBatcherOfferAfterClose(t *testing.T) {
	solver := mustSolver(t)
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: time.Millisecond,
		Clock:    sim.NewClock(),
		OnWindow: func(w *dls.Window) { w.Complete(nil, make([]error, w.Size())) },
	})
	b.Close()
	if _, err := b.Offer(context.Background(), closeTestRequest(), "", nil); !errors.Is(err, dls.ErrBatcherClosed) {
		t.Fatalf("Offer after Close: err = %v, want ErrBatcherClosed", err)
	}
}

// TestBatcherSubmitCloseRace hammers Submit against Close: every
// submission must resolve — with a result, or with ErrBatcherClosed /
// ErrOverloaded — and none may panic or hang. The virtual clock never
// advances, so completions come purely from the close-drain path
// flushing queued windows.
func TestBatcherSubmitCloseRace(t *testing.T) {
	solver := mustSolver(t)
	for round := 0; round < 10; round++ {
		clk := sim.NewClock()
		b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Hour, MaxSize: 4, Clock: clk})
		const submitters = 8
		errs := make(chan error, submitters)
		var started sync.WaitGroup
		started.Add(submitters)
		for i := 0; i < submitters; i++ {
			go func() {
				started.Done()
				_, err := b.Submit(context.Background(), closeTestRequest())
				errs <- err
			}()
		}
		started.Wait()
		b.Close()
		for i := 0; i < submitters; i++ {
			select {
			case err := <-errs:
				if err != nil && !errors.Is(err, dls.ErrBatcherClosed) && !errors.Is(err, dls.ErrOverloaded) {
					t.Fatalf("round %d: unexpected submit error: %v", round, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("round %d: submission hung across Close", round)
			}
		}
		// The batcher stays answerable (and closed) afterwards.
		if _, err := b.Submit(context.Background(), closeTestRequest()); !errors.Is(err, dls.ErrBatcherClosed) {
			t.Fatalf("round %d: post-race Submit err = %v, want ErrBatcherClosed", round, err)
		}
	}
}

// TestBatcherDirectSubmitCloseRace covers the MaxDelay = 0 path, where
// Submit solves its one-request window inline and Close waits the solve
// out.
func TestBatcherDirectSubmitCloseRace(t *testing.T) {
	solver := mustSolver(t)
	for round := 0; round < 10; round++ {
		b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: 0, QueueCap: 4, Clock: sim.NewClock()})
		const submitters = 8
		errs := make(chan error, submitters)
		for i := 0; i < submitters; i++ {
			go func() {
				_, err := b.Submit(context.Background(), closeTestRequest())
				errs <- err
			}()
		}
		b.Close()
		for i := 0; i < submitters; i++ {
			if err := <-errs; err != nil && !errors.Is(err, dls.ErrBatcherClosed) && !errors.Is(err, dls.ErrOverloaded) {
				t.Fatalf("round %d: unexpected submit error: %v", round, err)
			}
		}
	}
}

// TestBatcherCloseFlushesSyncWindow pins that Close in synchronous mode
// hands the filling window to OnWindow exactly once, so no admitted
// submission is silently dropped.
func TestBatcherCloseFlushesSyncWindow(t *testing.T) {
	solver := mustSolver(t)
	clk := sim.NewClock()
	var flushed int
	var mu sync.Mutex
	b := solver.NewBatcher(dls.BatcherConfig{
		MaxDelay: time.Hour,
		MaxSize:  1 << 20,
		Clock:    clk,
		OnWindow: func(w *dls.Window) {
			mu.Lock()
			flushed += w.Size()
			mu.Unlock()
			w.Complete(nil, make([]error, w.Size()))
		},
	})
	for i := 0; i < 5; i++ {
		if _, err := b.Offer(context.Background(), closeTestRequest(), "", nil); err != nil {
			t.Fatalf("Offer %d: %v", i, err)
		}
	}
	b.Close()
	b.Close() // idempotent: must not double-flush
	mu.Lock()
	defer mu.Unlock()
	if flushed != 5 {
		t.Fatalf("flushed %d submissions through OnWindow, want 5", flushed)
	}
}
