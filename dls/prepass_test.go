package dls

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// prepassRequests builds a mixed workload of chain-shaped requests (the
// SoA prepass collapses them) and non-chain requests (pool path).
func prepassRequests(rng *rand.Rand, platforms int) []Request {
	var reqs []Request
	for i := 0; i < platforms; i++ {
		p := RandomSpeeds(rng, 6, Heterogeneous).Platform(DefaultApp(100))
		reqs = append(reqs,
			Request{Platform: p, Strategy: StrategyIncC, Load: 500},
			Request{Platform: p, Strategy: StrategyIncW},
			Request{Platform: p, Strategy: StrategyDecC},
			Request{Platform: p, Strategy: StrategyLIFO},
			Request{Platform: p, Strategy: StrategyFIFOOrder, Send: p.ByW()},
			Request{Platform: p, Strategy: StrategyScenario, Send: p.ByC(), Return: p.ByC().Reverse()},
			// Not chain-shaped: exercises the pool path next to the prepass.
			Request{Platform: p, Strategy: StrategyFIFOExhaustive},
		)
	}
	return reqs
}

// chainCoverRequests builds, for every model and §5.3 platform family,
// one request per strategy shape chainScenario accepts — fixed FIFO
// orders, the optimal LIFO, explicit FIFO/LIFO send orders and FIFO or
// reversed scenarios — with a Load so Makespan is exercised too.
func chainCoverRequests(rng *rand.Rand, perFamily int) []Request {
	var reqs []Request
	for _, model := range []Model{OnePort, TwoPort} {
		for _, fam := range []Family{Homogeneous, HomCommHeteroComp, Heterogeneous} {
			for i := 0; i < perFamily; i++ {
				p := RandomSpeeds(rng, 3+i%6, fam).Platform(DefaultApp(100))
				for _, r := range []Request{
					{Strategy: StrategyIncC},
					{Strategy: StrategyIncW},
					{Strategy: StrategyDecC},
					{Strategy: StrategyLIFO},
					{Strategy: StrategyFIFOOrder, Send: p.ByW()},
					{Strategy: StrategyLIFOOrder, Send: p.ByW()},
					{Strategy: StrategyScenario, Send: p.ByCDesc(), Return: p.ByCDesc()},
					{Strategy: StrategyScenario, Send: p.ByC(), Return: p.ByC().Reverse()},
				} {
					r.Platform, r.Model, r.Load = p, model, 500
					reqs = append(reqs, r)
				}
			}
		}
	}
	return reqs
}

// TestSolveBatchChainPrepassMatchesSolve: every request of a batch that
// the SoA chain prepass answers must carry, bit for bit, the throughput,
// loads and makespan of an individual Solve of the same request (which
// runs the strategy) — otherwise a served answer would depend on what
// else shared its admission window.
func TestSolveBatchChainPrepassMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	reqs := append(prepassRequests(rng, 4), chainCoverRequests(rng, 40)...)
	solver, err := NewSolver(WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	results, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if solver.Stats().PrepassGroups == 0 {
		t.Fatal("no request took the chain prepass")
	}
	single, err := NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, req := range reqs {
		want, err := single.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got := results[i]
		if got == nil {
			t.Fatalf("request %d: no batch result", i)
		}
		if got.Schedule == nil || want.Schedule == nil {
			t.Fatalf("request %d: missing schedule", i)
		}
		if !same(got.Throughput, want.Throughput) {
			t.Errorf("request %d (%s, p=%d): batch throughput %.17g != solve %.17g",
				i, req.Strategy, req.Platform.P(), got.Throughput, want.Throughput)
		}
		if len(got.Schedule.Alpha) != len(want.Schedule.Alpha) {
			t.Fatalf("request %d: %d loads, solve has %d", i, len(got.Schedule.Alpha), len(want.Schedule.Alpha))
		}
		for w := range want.Schedule.Alpha {
			if !same(got.Schedule.Alpha[w], want.Schedule.Alpha[w]) {
				t.Errorf("request %d (%s): load of worker %d: batch %.17g != solve %.17g",
					i, req.Strategy, w, got.Schedule.Alpha[w], want.Schedule.Alpha[w])
			}
		}
		if !same(got.Makespan, want.Makespan) {
			t.Errorf("request %d (%s): batch makespan %.17g != solve %.17g", i, req.Strategy, got.Makespan, want.Makespan)
		}
	}
}

// TestSolveBatchChainPrepassStats: prepass-answered groups still count as
// solves/misses, duplicates are marked Cached, and a warm cache serves
// repeat batches without re-solving.
func TestSolveBatchChainPrepassStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8081))
	p := RandomSpeeds(rng, 6, Heterogeneous).Platform(DefaultApp(100))
	reqs := []Request{
		{Platform: p, Strategy: StrategyIncC},
		{Platform: p, Strategy: StrategyIncW},
		{Platform: p, Strategy: StrategyIncC}, // duplicate of #0
	}
	solver, err := NewSolver(WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	results, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Cached != true {
		t.Error("duplicate request not marked Cached")
	}
	if results[0].Cached {
		t.Error("leader request marked Cached on a cold cache")
	}
	st := solver.Stats()
	if st.Solves != 2 {
		t.Errorf("Solves = %d, want 2 (one per distinct problem)", st.Solves)
	}
	// Second, warm batch: both distinct problems served from the cache.
	results2, err := solver.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results2 {
		if !r.Cached {
			t.Errorf("warm batch request %d not served from cache", i)
		}
	}
	if st2 := solver.Stats(); st2.Solves != 2 {
		t.Errorf("warm batch re-solved: Solves = %d, want 2", st2.Solves)
	}
}

// TestSolveBatchPrepassDeterminism: output is byte-identical across
// parallelism settings with the prepass active.
func TestSolveBatchPrepassDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8082))
	reqs := prepassRequests(rng, 3)
	var ref []*Result
	for _, par := range []int{1, 4, 8} {
		solver, err := NewSolver(WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		results, err := solver.SolveBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = results
			continue
		}
		for i := range results {
			if results[i].Throughput != ref[i].Throughput {
				t.Fatalf("parallelism %d: request %d throughput %.17g != %.17g", par, i, results[i].Throughput, ref[i].Throughput)
			}
			for w := range results[i].Schedule.Alpha {
				if results[i].Schedule.Alpha[w] != ref[i].Schedule.Alpha[w] {
					t.Fatalf("parallelism %d: request %d load %d differs", par, i, w)
				}
			}
		}
	}
}

// TestSolveBatchPrepassHonoursCancellation: a done context must fail every
// request with ctx.Err(), including the chain-shaped ones the prepass
// would otherwise answer before the pool runs.
func TestSolveBatchPrepassHonoursCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(8083))
	p := RandomSpeeds(rng, 6, Heterogeneous).Platform(DefaultApp(100))
	reqs := []Request{
		{Platform: p, Strategy: StrategyIncC},
		{Platform: p, Strategy: StrategyIncW},
	}
	solver, err := NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := solver.SolveBatch(ctx, reqs)
	if err == nil {
		t.Fatal("cancelled SolveBatch returned no error")
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("request %d produced a result under a cancelled context", i)
		}
	}
}
