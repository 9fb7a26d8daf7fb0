package dls_test

// Mode equivalence: goroutine-mode Submit and synchronous-mode Offer are
// two transports around one admission state machine, so one seeded
// arrival sequence driven through each on a virtual clock must flush the
// same windows at the same instants and shed the same submissions —
// with a cached solver too, whose hits both answer at admission.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/sim"
)

// modesService is the virtual time every window takes to solve.
const modesService = 250 * time.Microsecond

// vsleep backs the "test-vsleep" strategy: a solve that takes exactly
// modesService of virtual time on clk, and counts its starts in armed so
// the driver knows every solve is under way before it moves the clock.
var vsleep struct {
	clk   atomic.Pointer[sim.Clock]
	armed atomic.Int64
}

var registerVSleepStrategy = sync.OnceFunc(func() {
	err := dls.RegisterStrategy("test-vsleep", func(context.Context, dls.Request) (*dls.Result, error) {
		done := make(chan struct{})
		vsleep.clk.Load().AfterFunc(modesService, func() { close(done) })
		vsleep.armed.Add(1)
		<-done
		return &dls.Result{}, nil
	})
	if err != nil {
		panic(err)
	}
})

type modesArrival struct {
	at    time.Duration
	class string
	req   dls.Request
}

// modesArrivals draws n arrivals alternating dense bursts (mean gap 15µs)
// and quiet spells (400µs), each a distinct problem so that a window's
// dedup groups equal its size in both modes.
func modesArrivals(seed int64, n int) []modesArrival {
	rng := rand.New(rand.NewSource(seed))
	classes := []string{"tight", "standard", ""}
	var at time.Duration
	out := make([]modesArrival, n)
	for i := range out {
		mean := 400 * time.Microsecond
		if (i/40)%2 == 0 {
			mean = 15 * time.Microsecond
		}
		at += time.Duration(rng.ExpFloat64() * float64(mean))
		p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		out[i] = modesArrival{at: at, class: classes[rng.Intn(len(classes))],
			req: dls.Request{Platform: p, Strategy: "test-vsleep"}}
	}
	return out
}

// withHits interleaves hits into arrivals: after every third arrival, one
// of the hot requests arrives at the same instant under the same class.
func withHits(arrivals []modesArrival, hot []dls.Request) []modesArrival {
	out := make([]modesArrival, 0, len(arrivals)+len(arrivals)/3)
	for i, a := range arrivals {
		out = append(out, a)
		if i%3 == 2 {
			out = append(out, modesArrival{at: a.at, class: a.class, req: hot[i%len(hot)]})
		}
	}
	return out
}

// modesSolver builds the solver of one run: cache-less, or cached and
// warmed with hot.
func modesSolver(t *testing.T, hot []dls.Request, opts ...dls.Option) *dls.Solver {
	if hot == nil {
		return mustSolver(t, opts...)
	}
	solver := mustSolver(t, append(opts, dls.WithCache(1024))...)
	for _, req := range hot {
		if _, err := solver.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	return solver
}

type modesFlush struct {
	at   time.Duration
	size int
}

type modesShed struct {
	at    time.Duration
	class string
	slo   bool
}

// modesLog records what the batcher's hooks observe, in virtual time.
type modesLog struct {
	clk     *sim.Clock
	mu      sync.Mutex
	flushes []modesFlush
	sheds   []modesShed
	flushed int // Σ flushed window sizes
}

func (l *modesLog) onFlush(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushes = append(l.flushes, modesFlush{l.clk.Now().Sub(sim.Epoch), n})
	l.flushed += n
}

func (l *modesLog) onShed(class string, _ any, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sheds = append(l.sheds, modesShed{l.clk.Now().Sub(sim.Epoch), class, errors.Is(err, dls.ErrSLOUnmeetable)})
}

// snapshot returns Σ flushed sizes and the part of it whose windows are
// still solving at virtual time now.
func (l *modesLog) snapshot(now time.Duration) (flushed, solving int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.flushes {
		if f.at+modesService > now {
			solving += f.size
		}
	}
	return l.flushed, solving
}

type modesRun struct {
	flushes    []modesFlush
	sheds      []modesShed
	violations map[string]uint64
	hits       uint64
}

func modesConfig(adaptive bool, log *modesLog) dls.BatcherConfig {
	cfg := dls.BatcherConfig{
		MaxDelay: 300 * time.Microsecond,
		MaxSize:  6,
		QueueCap: 12,
		Workers:  12, // ≥ QueueCap: every flushed window starts solving at once
		Clock:    log.clk,
		Classes: []dls.SLOClass{
			{Name: "tight", Deadline: 400 * time.Microsecond, Priority: 2},
			{Name: "standard", Deadline: 4 * time.Millisecond, Priority: 1},
		},
		OnFlush: log.onFlush,
		OnShed:  log.onShed,
	}
	if adaptive {
		cfg.Adaptive = &dls.AdaptiveConfig{MinDelay: 50 * time.Microsecond, MaxDelay: 300 * time.Microsecond, MaxSize: 12}
	}
	return cfg
}

// runSubmitMode drives the arrivals through goroutine-mode SubmitSLO.
// The virtual clock moves one timer or arrival at a time, and only once
// the batcher has settled: every submission admitted or shed, every
// flushed window's solve started, every window due by now answered.
func runSubmitMode(t *testing.T, arrivals []modesArrival, adaptive bool, hot []dls.Request) modesRun {
	clk := sim.NewClock()
	vsleep.clk.Store(clk)
	vsleep.armed.Store(0)
	log := &modesLog{clk: clk}
	solver := modesSolver(t, hot, dls.WithParallelism(16))
	b := solver.NewBatcher(modesConfig(adaptive, log))

	var wg sync.WaitGroup
	submitted := 0
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			// Read order matters: each later read can only be newer, so a
			// half-finished admission or flush never looks settled.
			solved := solver.Stats()
			hits, shed := int(solved.Hits), int(solved.Shed)
			flushed, solving := log.snapshot(clk.Now().Sub(sim.Epoch))
			st := b.Stats()
			if hits+shed+flushed+st.WindowFill == submitted && st.QueueDepth == solving &&
				int(vsleep.armed.Load()) == flushed {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("batcher did not settle: hits=%d shed=%d flushed=%d fill=%d submitted=%d depth=%d solving=%d armed=%d",
					hits, shed, flushed, st.WindowFill, submitted, st.QueueDepth, solving, vsleep.armed.Load())
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	advanceTo := func(at time.Time) {
		for {
			next, ok := clk.NextTimer()
			if !ok || next.After(at) {
				break
			}
			clk.AdvanceTo(next)
			settle()
		}
		clk.AdvanceTo(at)
	}
	for _, a := range arrivals {
		advanceTo(sim.Epoch.Add(a.at))
		submitted++
		wg.Add(1)
		go func(a modesArrival) {
			defer wg.Done()
			b.SubmitSLO(context.Background(), a.req, a.class)
		}(a)
		settle()
	}
	advanceTo(sim.Epoch.Add(arrivals[len(arrivals)-1].at + time.Second))
	b.Close()
	wg.Wait()
	st := solver.Stats()
	return modesRun{log.flushes, log.sheds, st.ViolationsByClass, st.Hits}
}

// runOfferMode drives the same arrivals through synchronous-mode Offer,
// completing each window modesService after its flush.
func runOfferMode(t *testing.T, arrivals []modesArrival, adaptive bool, hot []dls.Request) modesRun {
	clk := sim.NewClock()
	log := &modesLog{clk: clk}
	solver := modesSolver(t, hot)
	var solving []*dls.Window // in flush order, so in due order
	cfg := modesConfig(adaptive, log)
	cfg.OnWindow = func(w *dls.Window) { solving = append(solving, w) }
	b := solver.NewBatcher(cfg)

	// step runs every completion and window expiry due by at, in time
	// order, then moves the clock to at.
	step := func(at time.Time) {
		for {
			next := at
			if len(solving) > 0 {
				if due := solving[0].FlushedAt().Add(modesService); due.Before(next) || due.Equal(next) {
					next = due
				}
			}
			dl, open := b.WindowDeadline()
			expire := open && !dl.After(next)
			if expire {
				next = dl
			}
			clk.AdvanceTo(next)
			switch {
			case expire:
				b.ExpireWindow()
			case len(solving) > 0 && !solving[0].FlushedAt().Add(modesService).After(next):
				if err := solving[0].Complete(nil, nil); err != nil {
					t.Fatal(err)
				}
				solving = solving[1:]
			default:
				return
			}
		}
	}
	for _, a := range arrivals {
		step(sim.Epoch.Add(a.at))
		if _, err := b.Offer(context.Background(), a.req, a.class, nil); err != nil {
			t.Fatal(err)
		}
	}
	step(sim.Epoch.Add(arrivals[len(arrivals)-1].at + time.Second))
	b.Close()
	st := solver.Stats()
	return modesRun{log.flushes, log.sheds, st.ViolationsByClass, st.Hits}
}

// TestBatcherModesAgree replays one seeded arrival sequence through
// Submit and through Offer, with fixed and adaptive windows, and demands
// the same window sizes, flush times, shed set and SLO violations. The
// cached rows interleave hits of warmed problems, which both modes must
// answer at admission without disturbing any window or shed.
func TestBatcherModesAgree(t *testing.T) {
	registerVSleepStrategy()
	arrivals := modesArrivals(1313, 400)
	rng := rand.New(rand.NewSource(1314))
	hot := make([]dls.Request, 8)
	for i := range hot {
		p := dls.RandomSpeeds(rng, 4, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		hot[i] = dls.Request{Platform: p, Strategy: dls.StrategyIncC}
	}
	uncached := make(map[bool]modesRun) // by adaptive
	for _, row := range []struct {
		name     string
		adaptive bool
		hot      []dls.Request
	}{
		{"fixed", false, nil},
		{"adaptive", true, nil},
		{"fixed-cached", false, hot},
		{"adaptive-cached", true, hot},
	} {
		t.Run(row.name, func(t *testing.T) {
			adaptive, arrivals := row.adaptive, arrivals
			if row.hot != nil {
				arrivals = withHits(arrivals, row.hot)
			}
			got := runSubmitMode(t, arrivals, adaptive, row.hot)
			want := runOfferMode(t, arrivals, adaptive, row.hot)

			full, slo := 0, 0
			for _, f := range want.flushes {
				if f.size >= 6 {
					full++
				}
			}
			for _, s := range want.sheds {
				if s.slo {
					slo++
				}
			}
			if full == 0 || len(want.sheds)-slo == 0 || (adaptive && slo == 0) {
				t.Fatalf("sequence exercises too little: %d windows (%d full), %d sheds (%d SLO)",
					len(want.flushes), full, len(want.sheds), slo)
			}
			t.Logf("%d windows (%d full), %d sheds (%d SLO), violations %v",
				len(want.flushes), full, len(want.sheds), slo, want.violations)

			if len(got.flushes) != len(want.flushes) {
				t.Errorf("Submit flushed %d windows, Offer %d", len(got.flushes), len(want.flushes))
			}
			for i := 0; i < len(got.flushes) && i < len(want.flushes); i++ {
				if got.flushes[i] != want.flushes[i] {
					t.Fatalf("window %d: Submit %+v, Offer %+v", i, got.flushes[i], want.flushes[i])
				}
			}
			if len(got.sheds) != len(want.sheds) {
				t.Errorf("Submit shed %d, Offer %d", len(got.sheds), len(want.sheds))
			}
			for i := 0; i < len(got.sheds) && i < len(want.sheds); i++ {
				if got.sheds[i] != want.sheds[i] {
					t.Fatalf("shed %d: Submit %+v, Offer %+v", i, got.sheds[i], want.sheds[i])
				}
			}
			for _, class := range []string{"tight", "standard", ""} {
				if got.violations[class] != want.violations[class] {
					t.Errorf("class %q violations: Submit %d, Offer %d", class, got.violations[class], want.violations[class])
				}
			}
			if wantHits := uint64(len(arrivals) - 400); got.hits != wantHits || want.hits != wantHits {
				t.Errorf("hits: Submit %d, Offer %d, want %d (every hot arrival)", got.hits, want.hits, wantHits)
			}
			if row.hot == nil {
				uncached[adaptive] = want
			} else if base, ok := uncached[adaptive]; ok &&
				(!slices.Equal(want.flushes, base.flushes) || !slices.Equal(want.sheds, base.sheds)) {
				t.Errorf("hits changed the windows or sheds: %d windows, %d sheds; without hits %d, %d",
					len(want.flushes), len(want.sheds), len(base.flushes), len(base.sheds))
			}
		})
	}
}
