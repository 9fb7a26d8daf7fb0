package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// TestForEachPermutationAdjacentTranspositions pins the generator's
// contract: every emitted order differs from its predecessor by exactly
// one ADJACENT transposition, the reported index names it, all n! orders
// are distinct, and the first emission is the identity with index -1.
// The incremental sweep's O(p−i) updates are only sound under exactly
// this contract.
func TestForEachPermutationAdjacentTranspositions(t *testing.T) {
	factorial := func(n int) int {
		f := 1
		for i := 2; i <= n; i++ {
			f *= i
		}
		return f
	}
	for n := 1; n <= 7; n++ {
		var prev []int
		seen := make(map[string]bool)
		count := 0
		err := forEachPermutation(n, func(perm []int, swapped int) error {
			count++
			key := fmt.Sprint(perm)
			if seen[key] {
				return fmt.Errorf("permutation %v emitted twice", perm)
			}
			seen[key] = true
			if prev == nil {
				if swapped != -1 {
					return fmt.Errorf("first emission reported swap index %d, want -1", swapped)
				}
				for i, v := range perm {
					if v != i {
						return fmt.Errorf("first emission %v is not the identity", perm)
					}
				}
			} else {
				if swapped < 0 || swapped+1 >= n {
					return fmt.Errorf("swap index %d out of range for n=%d", swapped, n)
				}
				diff := 0
				for i := range perm {
					if perm[i] != prev[i] {
						diff++
					}
				}
				if diff != 2 ||
					perm[swapped] != prev[swapped+1] || perm[swapped+1] != prev[swapped] {
					return fmt.Errorf("emission %v does not differ from %v by the adjacent transposition (%d, %d)",
						perm, prev, swapped, swapped+1)
				}
			}
			prev = append(prev[:0], perm...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != factorial(n) {
			t.Fatalf("n=%d: emitted %d permutations, want %d", n, count, factorial(n))
		}
	}
}

// TestForEachPermutationSliceReuse documents (and pins) the aliasing
// hazard: the slice passed to the callback is mutated between calls, so
// retaining it observes later permutations.
func TestForEachPermutationSliceReuse(t *testing.T) {
	var retained []int
	first := ""
	if err := forEachPermutation(4, func(perm []int, _ int) error {
		if retained == nil {
			retained = perm // deliberately aliased, violating the contract
			first = fmt.Sprint(perm)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(retained) == first {
		t.Fatal("retained slice did not change — the documented reuse hazard no longer holds, update the docs")
	}
}

// randomPairPlatform draws a small heterogeneous platform for the pair
// search tests.
func randomPairPlatform(rng *rand.Rand, n int) *platform.Platform {
	ws := make([]platform.Worker, n)
	for i := range ws {
		ws[i] = platform.Worker{
			C: 0.02 + 0.2*rng.Float64(),
			W: 0.05 + 0.5*rng.Float64(),
			D: 0.01 + 0.3*rng.Float64(),
		}
	}
	return platform.New(ws...)
}

// TestPairSeedsNeverExceedOptimum validates the incumbent seeding: every
// certified FIFO/LIFO seed is an achieved throughput of a scenario inside
// the pair-search space, so the seeded incumbent can never exceed the true
// pair optimum — seeding an unachievable incumbent would silently prune
// winning send orders.
func TestPairSeedsNeverExceedOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(2)
		p := randomPairPlatform(rng, n)
		core := newSearchCore(t.Context())
		if err := seedPairIncumbent(t.Context(), core, p, schedule.OnePort, n, true); err != nil {
			t.Fatal(err)
		}
		maxSeed := core.bestRho
		pr, err := BestPairExhaustiveEval(context.Background(), p, schedule.OnePort, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		opt := pr.Schedule.Throughput()
		if maxSeed > opt*(1+1e-9) {
			t.Fatalf("trial %d: seeded incumbent %.12g exceeds the pair optimum %.12g", trial, maxSeed, opt)
		}
		// The seed's claimed orders must actually achieve the claimed
		// throughput (the incumbent is an achieved point, not a bound).
		rho, err := eval.NewSession().Throughput(eval.Scenario{
			Platform: p, Send: core.best, Return: core.bestRet, Model: schedule.OnePort,
		}, eval.Simplex)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxSeed - rho; d > 1e-9*(1+rho) || d < -1e-9*(1+rho) {
			t.Fatalf("trial %d: seed claims %.12g but its scenario evaluates to %.12g", trial, maxSeed, rho)
		}
	}
}

// TestPairSeedingIncreasesPruning runs the serial pair search with and
// without incumbent seeding on 50 random platforms, via the package test
// hooks: the result must be identical either way, per-platform root-bound
// prunes (send orders whose whole return-order tree is skipped) must never
// decrease with seeds, and across the sample seeding must prune strictly
// more send orders (the whole point of evaluating the two chain scenarios
// first). Serially the seeded incumbent dominates the unseeded one at
// every send order, which makes the root prunes monotone; deep prunes are
// not (the branch-and-bound trades many deep cuts for fewer shallow ones),
// so their seeding property is a work bound instead (see
// TestPairBBSeedingReducesWork).
func TestPairSeedingIncreasesPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(654))
	totalSeeded, totalUnseeded := uint64(0), uint64(0)
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(2)
		p := randomPairPlatform(rng, n)

		run := func(disable bool) (*PairResult, uint64) {
			disablePairSeeding = disable
			defer func() { disablePairSeeding = false }()
			before := PairStatsSnapshot()
			pr, err := BestPairExhaustiveEval(t.Context(), p, schedule.OnePort, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			after := PairStatsSnapshot()
			return pr, after.OuterPruned - before.OuterPruned
		}
		seeded, prunedSeeded := run(false)
		unseeded, prunedUnseeded := run(true)

		if s, u := seeded.Schedule.Throughput(), unseeded.Schedule.Throughput(); s != u {
			t.Fatalf("trial %d: seeding changed the optimum: %.17g != %.17g", trial, s, u)
		}
		if prunedSeeded < prunedUnseeded {
			t.Fatalf("trial %d: seeding reduced pruning: %d < %d", trial, prunedSeeded, prunedUnseeded)
		}
		totalSeeded += prunedSeeded
		totalUnseeded += prunedUnseeded
	}
	if totalSeeded <= totalUnseeded {
		t.Fatalf("seeding did not increase pruning across the sample: %d (seeded) vs %d (unseeded)",
			totalSeeded, totalUnseeded)
	}
}

// TestPairBBSeedingReducesWork is the branch-and-bound counterpart of the
// seeding test: the optimum must be identical with and without seeds, and
// across the sample the seeded searches must expand strictly fewer nodes
// and evaluate strictly fewer leaves — the incumbent from the batch seeds
// lets the prefix bound cut subtrees from the very first send order.
func TestPairBBSeedingReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(655))
	var seededWork, unseededWork uint64
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(2)
		p := randomPairPlatform(rng, n)

		run := func(disable bool) (*PairResult, uint64) {
			disablePairSeeding = disable
			defer func() { disablePairSeeding = false }()
			before := PairStatsSnapshot()
			pr, err := BestPairExhaustiveEval(t.Context(), p, schedule.OnePort, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			after := PairStatsSnapshot()
			return pr, (after.NodesExpanded - before.NodesExpanded) + (after.LeavesEvaluated - before.LeavesEvaluated)
		}
		seeded, workSeeded := run(false)
		unseeded, workUnseeded := run(true)
		if s, u := seeded.Schedule.Throughput(), unseeded.Schedule.Throughput(); s != u {
			t.Fatalf("trial %d: seeding changed the optimum: %.17g != %.17g", trial, s, u)
		}
		seededWork += workSeeded
		unseededWork += workUnseeded
	}
	if seededWork >= unseededWork {
		t.Fatalf("seeding did not reduce branch-and-bound work across the sample: %d (seeded) vs %d (unseeded)",
			seededWork, unseededWork)
	}
}

// pairFlat runs the unpruned double loop under mode and evaluates the
// winner like BestPairExhaustiveEval: the reference the branch-and-bound
// must agree with.
func pairFlat(ctx context.Context, p *platform.Platform, model schedule.Model, mode eval.Mode) (*PairResult, error) {
	winner := newSearchCore(ctx)
	sess := eval.NewSession()
	if err := pairSearchFlat(winner, sess, p, model, mode, p.P()); err != nil {
		return nil, err
	}
	s, err := sess.Evaluate(eval.Scenario{Platform: p, Send: winner.best, Return: winner.bestRet, Model: model}, mode)
	if err != nil {
		return nil, err
	}
	return &PairResult{Schedule: s, Send: winner.best, Return: winner.bestRet}, nil
}

// TestPairBBAgreesWithFlat pins the branch-and-bound pair search against
// the flat double loop: on random platforms across models the two must
// agree on the optimal throughput, the derived makespan and the winning
// schedule's canonicalised loads to 1e-9, and — whenever the optimum is
// not a floating-point tie — on the winning (σ1, σ2) pair itself. The
// branch-and-bound prunes with a relative margin (pruneSlack), so two
// pairs within that margin of each other are legitimately interchangeable
// winners; in that case the loads of both reported schedules must still
// agree. On p ≤ 4 the ExactRational search (the flat loop in rational
// arithmetic) must agree with the branch-and-bound's throughput too.
func TestPairBBAgreesWithFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	const load = 1000.0
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(3)
		p := randomPairPlatform(rng, n)
		model := schedule.OnePort
		if trial%5 == 4 {
			model = schedule.TwoPort
		}
		bb, err := BestPairExhaustiveEval(t.Context(), p, model, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := pairFlat(t.Context(), p, model, eval.Auto)
		if err != nil {
			t.Fatal(err)
		}
		rb, rf := bb.Schedule.Throughput(), flat.Schedule.Throughput()
		tol := 1e-9 * (1 + rb + rf)
		if d := rb - rf; d > tol || d < -tol {
			t.Fatalf("trial %d: bb throughput %.12g != flat %.12g\n%s", trial, rb, rf, p)
		}
		if d := load/rb - load/rf; d > 1e-9*(1+load/rb) || d < -1e-9*(1+load/rb) {
			t.Fatalf("trial %d: makespan disagreement: bb %.12g != flat %.12g", trial, load/rb, load/rf)
		}
		sameOrders := fmt.Sprint(bb.Send) == fmt.Sprint(flat.Send) && fmt.Sprint(bb.Return) == fmt.Sprint(flat.Return)
		if !sameOrders {
			// A tie within the pruning margin: both pairs must achieve the
			// same optimum (re-evaluated through the simplex to decouple the
			// check from the search's own arithmetic).
			sess := eval.NewSession()
			vb, err := sess.Throughput(eval.Scenario{Platform: p, Send: bb.Send, Return: bb.Return, Model: model}, eval.Simplex)
			if err != nil {
				t.Fatal(err)
			}
			vf, err := sess.Throughput(eval.Scenario{Platform: p, Send: flat.Send, Return: flat.Return, Model: model}, eval.Simplex)
			if err != nil {
				t.Fatal(err)
			}
			if d := vb - vf; d > tol || d < -tol {
				t.Fatalf("trial %d: winners differ beyond a tie: bb (σ1=%v σ2=%v)=%.12g, flat (σ1=%v σ2=%v)=%.12g",
					trial, bb.Send, bb.Return, vb, flat.Send, flat.Return, vf)
			}
		}
		// Canonicalised loads (Evaluate pins degenerate optima to the
		// lex-min vertex) of the two reported schedules.
		for i := range bb.Schedule.Alpha {
			a, b := bb.Schedule.Alpha[i], flat.Schedule.Alpha[i]
			if !sameOrders {
				continue // tie winners may enroll different workers
			}
			if d := a - b; d > 1e-9*(1+a+b) || d < -1e-9*(1+a+b) {
				t.Fatalf("trial %d: load of worker %d: bb %.12g != flat %.12g", trial, i, a, b)
			}
		}
		if n > 4 {
			continue
		}
		exact, err := BestPairExhaustiveEval(t.Context(), p, model, eval.ExactRational)
		if err != nil {
			t.Fatal(err)
		}
		if re := exact.Schedule.Throughput(); re-rb > tol || rb-re > tol {
			t.Fatalf("trial %d: exact throughput %.12g != bb %.12g\n%s", trial, re, rb, p)
		}
	}
}

// TestPairBBCancellationInsideRecursion pins the cancellation granularity
// satellite: a deadline far shorter than the p = 7 search must surface as
// ctx.Err() promptly, with the expiry landing inside the return-order
// recursion (seeding is disabled so the deadline cannot be absorbed by the
// seeding phase, and the incumbent therefore starts unseeded, keeping the
// early subtrees deep).
func TestPairBBCancellationInsideRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	p := randomPairPlatform(rng, 7)
	disablePairSeeding = true
	defer func() { disablePairSeeding = false }()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
	defer cancel()
	start := time.Now()
	_, err := BestPairExhaustiveEval(ctx, p, schedule.OnePort, eval.Auto)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v (after %v)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, the recursion is not polling the context", elapsed)
	}
}

// TestSweepSearchAgreesAcrossBackends pins the incremental order search at
// the strategy level: the Auto (sweep-driven) search must agree with the
// simplex-only search on the winning throughput for FIFO and LIFO.
func TestSweepSearchAgreesAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3)
		p := randomPairPlatform(rng, n)
		for _, lifo := range []bool{false, true} {
			search := BestFIFOExhaustiveEval
			if lifo {
				search = BestLIFOExhaustiveEval
			}
			auto, _, err := search(t.Context(), p, schedule.OnePort, eval.Auto)
			if err != nil {
				t.Fatal(err)
			}
			simplex, _, err := search(t.Context(), p, schedule.OnePort, eval.Simplex)
			if err != nil {
				t.Fatal(err)
			}
			a, s := auto.Throughput(), simplex.Throughput()
			if diff := a - s; diff > 1e-9*(1+a+s) || diff < -1e-9*(1+a+s) {
				t.Fatalf("trial %d lifo=%v: auto search %.12g != simplex search %.12g", trial, lifo, a, s)
			}
		}
	}
}
