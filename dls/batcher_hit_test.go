package dls_test

// Cache hits at admission: a request whose result is in the solver's
// cache is answered by the admission step Submit and Offer share, before
// any window. Every test runs on a virtual clock that is never advanced,
// so a request that entered a window could only leave it by size, by
// ExpireWindow or by Close — never by the timer.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/sim"
)

// warmSolver returns a cached solver that has already solved hot.
func warmSolver(t *testing.T, hot ...dls.Request) *dls.Solver {
	t.Helper()
	solver := mustSolver(t, dls.WithCache(256))
	for _, req := range hot {
		if _, err := solver.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	return solver
}

// hotRequest is the cached request of the single-request tests.
func hotRequest() dls.Request {
	return dls.Request{Platform: testPlatform(), Strategy: dls.StrategyIncC, Load: 100}
}

// coldRequest draws a request no test warms.
func coldRequest(rng *rand.Rand) dls.Request {
	p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
	return dls.Request{Platform: p, Strategy: dls.StrategyIncW}
}

// within fails the test unless f returns in time: on a clock that never
// moves, a submission stuck in a window would block forever.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return: it waited for a window", what)
	}
}

// checkHit verifies a result answered from the cache for hotRequest.
func checkHit(t *testing.T, what string, res *dls.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if res == nil || !res.Cached || res.Makespan != 100/res.Throughput {
		t.Fatalf("%s = %+v, want a cached result with its own makespan", what, res)
	}
}

func TestHitAtAdmissionAnswersSubmitAndOffer(t *testing.T) {
	req := hotRequest()
	solver := warmSolver(t, req)
	clk := sim.NewClock()
	flushes := 0
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, Clock: clk,
		OnFlush: func(int) { flushes++ }})
	defer b.Close()

	var (
		res *dls.Result
		err error
	)
	within(t, "Submit of a cached request", func() { res, err = b.Submit(context.Background(), req) })
	checkHit(t, "Submit", res, err)
	if st := b.Stats(); st.WindowFill != 0 || st.QueueDepth != 0 {
		t.Errorf("a hit reached admission: %+v", st)
	}

	windows := 0
	sb := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, Clock: clk,
		OnWindow: func(*dls.Window) { windows++ }})
	defer sb.Close()
	p, err := sb.Offer(context.Background(), req, "", "tag")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("Offer of a cached request left its Pending open")
	}
	checkHit(t, "Offer", p.Result(), p.Err())
	if p.Tag() != "tag" {
		t.Errorf("Pending tag = %v, want tag", p.Tag())
	}
	if _, open := sb.WindowDeadline(); open {
		t.Error("a hit opened a window")
	}
	if st := solver.Stats(); flushes != 0 || windows != 0 || st.Windows != 0 || st.Hits != 2 {
		t.Errorf("flushes %d, windows %d, Stats %+v; want no window and 2 hits", flushes, windows, st)
	}
}

func TestHitAtAdmissionWhileQueueFull(t *testing.T) {
	req := hotRequest()
	rng := rand.New(rand.NewSource(71))
	solver := warmSolver(t, req)
	clk := sim.NewClock()
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, MaxSize: 8, QueueCap: 1, Clock: clk})

	queued := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), coldRequest(rng))
		queued <- err
	}()
	waitFor(t, "the miss to fill the queue", func() bool { return b.Stats().WindowFill == 1 })
	if _, err := b.Submit(context.Background(), coldRequest(rand.New(rand.NewSource(72)))); !errors.Is(err, dls.ErrOverloaded) {
		t.Fatalf("miss on a full queue = %v, want ErrOverloaded", err)
	}
	var (
		res *dls.Result
		err error
	)
	within(t, "Submit of a hit on a full queue", func() { res, err = b.Submit(context.Background(), req) })
	checkHit(t, "Submit on a full queue", res, err)
	b.Close()
	if err := <-queued; err != nil {
		t.Errorf("queued miss: %v", err)
	}

	var sheds []any
	sb := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, MaxSize: 8, QueueCap: 1, Clock: clk,
		OnWindow: func(w *dls.Window) { w.Complete(nil, nil) },
		OnShed:   func(_ string, tag any, _ error) { sheds = append(sheds, tag) }})
	defer sb.Close()
	offer := func(req dls.Request, tag string) *dls.Pending {
		t.Helper()
		p, err := sb.Offer(context.Background(), req, "", tag)
		if err != nil {
			t.Fatalf("Offer (%s): %v", tag, err)
		}
		return p
	}
	if p := offer(coldRequest(rng), "miss"); p.Done() {
		t.Fatalf("first miss answered at admission: %v", p.Err())
	}
	if p := offer(coldRequest(rng), "shed"); !p.Done() || !errors.Is(p.Err(), dls.ErrOverloaded) {
		t.Fatalf("miss on a full queue: done %v, err %v; want shed", p.Done(), p.Err())
	}
	p := offer(req, "hit")
	if !p.Done() {
		t.Fatal("hit on a full queue left its Pending open")
	}
	checkHit(t, "Offer on a full queue", p.Result(), p.Err())
	if len(sheds) != 1 || sheds[0] != "shed" {
		t.Errorf("shed tags = %v, want [shed]", sheds)
	}
	if st := solver.Stats(); st.Shed != 2 {
		t.Errorf("Shed = %d, want 2 (the misses only)", st.Shed)
	}
}

func TestHitAtAdmissionAfterCloseOrCancel(t *testing.T) {
	req := hotRequest()
	solver := warmSolver(t, req)
	clk := sim.NewClock()
	async := func() *dls.Batcher {
		return solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, Clock: clk})
	}
	synchronous := func() *dls.Batcher {
		return solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, Clock: clk,
			OnWindow: func(w *dls.Window) { w.Complete(nil, nil) }})
	}
	hits := solver.Stats().Hits

	b := async()
	b.Close()
	if _, err := b.Submit(context.Background(), req); !errors.Is(err, dls.ErrBatcherClosed) {
		t.Errorf("Submit of a hit after Close = %v, want ErrBatcherClosed", err)
	}
	sb := synchronous()
	sb.Close()
	if _, err := sb.Offer(context.Background(), req, "", nil); !errors.Is(err, dls.ErrBatcherClosed) {
		t.Errorf("Offer of a hit after Close = %v, want ErrBatcherClosed", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b = async()
	defer b.Close()
	if _, err := b.Submit(ctx, req); !errors.Is(err, context.Canceled) {
		t.Errorf("Submit of a hit under a done ctx = %v, want context.Canceled", err)
	}
	sb = synchronous()
	defer sb.Close()
	p, err := sb.Offer(ctx, req, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done() || !errors.Is(p.Err(), context.Canceled) {
		t.Errorf("Offer of a hit under a done ctx: done %v, err %v; want context.Canceled", p.Done(), p.Err())
	}
	if got := solver.Stats().Hits; got != hits {
		t.Errorf("refused submissions counted %d cache lookups, want 0", got-hits)
	}
}

// invalidRequests are rejected by validation, each with its own error.
func invalidRequests() []dls.Request {
	return []dls.Request{
		{Strategy: dls.StrategyIncC},
		{Platform: testPlatform(), Strategy: "no-such-strategy"},
		{Platform: testPlatform(), Strategy: dls.StrategyIncC, Load: -1},
	}
}

func TestHitAtAdmissionRejectsInvalid(t *testing.T) {
	solver := mustSolver(t, dls.WithCache(16))
	clk := sim.NewClock()
	flushes := 0
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, Clock: clk,
		OnFlush: func(int) { flushes++ }})
	defer b.Close()
	windows := 0
	sb := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, Clock: clk,
		OnWindow: func(*dls.Window) { windows++ }})
	defer sb.Close()

	for i, req := range invalidRequests() {
		_, want := solver.Solve(context.Background(), req)
		if want == nil {
			t.Fatalf("request %d validated", i)
		}
		var err error
		within(t, "Submit of an invalid request", func() { _, err = b.Submit(context.Background(), req) })
		if err == nil || err.Error() != want.Error() {
			t.Errorf("request %d: Submit error %v, want %v", i, err, want)
		}
		p, err := sb.Offer(context.Background(), req, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Done() || p.Err() == nil || p.Err().Error() != want.Error() {
			t.Errorf("request %d: Offer pending done %v, err %v; want %v", i, p.Done(), p.Err(), want)
		}
	}
	if st := solver.Stats(); flushes != 0 || windows != 0 || st.Windows != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("flushes %d, windows %d, Stats %+v; want no window and no lookup", flushes, windows, st)
	}
}

// lookupMix is a seeded arrival mix over the kinds of request admission
// tells apart.
type lookupMix struct {
	reqs  []dls.Request
	kinds []string // "hit", "miss", "dup" (repeats the latest miss), "invalid"
}

func newLookupMix(seed int64, n int, hot []dls.Request) lookupMix {
	rng := rand.New(rand.NewSource(seed))
	invalid := invalidRequests()
	var mix lookupMix
	var last dls.Request
	for i := 0; i < n; i++ {
		kind := []string{"hit", "miss", "dup", "invalid"}[rng.Intn(4)]
		if kind == "dup" && last.Platform == nil {
			kind = "miss"
		}
		var req dls.Request
		switch kind {
		case "hit":
			req = hot[rng.Intn(len(hot))]
		case "miss":
			req = coldRequest(rng)
			last = req
		case "dup":
			req = last
		case "invalid":
			req = invalid[rng.Intn(len(invalid))]
		}
		mix.reqs = append(mix.reqs, req)
		mix.kinds = append(mix.kinds, kind)
	}
	return mix
}

// count returns how many requests of the mix have the given kinds.
func (m lookupMix) count(kinds ...string) int {
	n := 0
	for _, k := range m.kinds {
		for _, want := range kinds {
			if k == want {
				n++
			}
		}
	}
	return n
}

func hotRequests(n int) []dls.Request {
	rng := rand.New(rand.NewSource(73))
	hot := make([]dls.Request, n)
	for i := range hot {
		p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		hot[i] = dls.Request{Platform: p, Strategy: dls.StrategyIncC, Load: float64(100 * (i + 1))}
	}
	return hot
}

// TestHitAtAdmissionCountsOneLookupPerRequest drives a seeded mix of
// hits, misses, in-window duplicates and invalid requests through Offer:
// Hits + Misses rises by exactly one per valid request, duplicates
// included, and the windows hold the misses alone.
func TestHitAtAdmissionCountsOneLookupPerRequest(t *testing.T) {
	hot := hotRequests(5)
	solver := warmSolver(t, hot...)
	before := solver.Stats()
	windowed := 0
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, MaxSize: 4, Clock: sim.NewClock(),
		OnWindow: func(w *dls.Window) {
			windowed += w.Size()
			w.Complete(nil, nil)
		}})
	mix := newLookupMix(74, 400, hot)
	for i, req := range mix.reqs {
		p, err := b.Offer(context.Background(), req, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		switch mix.kinds[i] {
		case "hit":
			if !p.Done() || p.Err() != nil || !p.Result().Cached {
				t.Fatalf("arrival %d (hit): done %v, err %v", i, p.Done(), p.Err())
			}
		case "invalid":
			if !p.Done() || p.Err() == nil {
				t.Fatalf("arrival %d (invalid): done %v, err %v", i, p.Done(), p.Err())
			}
		}
	}
	b.Close()

	st := solver.Stats()
	hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
	if want := mix.count("hit"); hits != uint64(want) {
		t.Errorf("hits = %d, want %d", hits, want)
	}
	if want := mix.count("miss", "dup"); misses != uint64(want) || windowed != want {
		t.Errorf("misses = %d, windowed %d, want %d", misses, windowed, want)
	}
}

// TestHitAtAdmissionConcurrentSubmit submits the mix from one goroutine
// per request (the race detector's view of the hit path): every
// valid request is looked up exactly once, hits come back cached, and
// invalid requests keep their validation errors.
func TestHitAtAdmissionConcurrentSubmit(t *testing.T) {
	hot := hotRequests(5)
	solver := warmSolver(t, hot...)
	before := solver.Stats()
	b := solver.NewBatcher(dls.BatcherConfig{MaxDelay: time.Millisecond, MaxSize: 4, Clock: sim.NewClock()})
	mix := newLookupMix(75, 200, hot)

	var (
		wg       sync.WaitGroup
		returned atomic.Int64
	)
	for i, req := range mix.reqs {
		wg.Add(1)
		go func(i int, req dls.Request) {
			defer wg.Done()
			defer returned.Add(1)
			res, err := b.Submit(context.Background(), req)
			switch mix.kinds[i] {
			case "hit":
				if err != nil || !res.Cached {
					t.Errorf("arrival %d (hit): %v", i, err)
				}
			case "invalid":
				if err == nil {
					t.Errorf("arrival %d (invalid) was solved", i)
				}
			default:
				if err != nil {
					t.Errorf("arrival %d (%s): %v", i, mix.kinds[i], err)
				}
			}
		}(i, req)
	}
	// The clock never moves: the last partial windows leave only at Close,
	// which must wait until every submission has been admitted.
	waitFor(t, "every submission to be answered or admitted", func() bool {
		st := b.Stats()
		return returned.Load()+int64(st.QueueDepth+st.WindowFill) == int64(len(mix.reqs))
	})
	b.Close()
	wg.Wait()

	st := solver.Stats()
	if got, want := st.Hits+st.Misses-before.Hits-before.Misses, mix.count("hit", "miss", "dup"); got != uint64(want) {
		t.Errorf("hits + misses = %d, want %d (one lookup per valid request)", got, want)
	}
}
