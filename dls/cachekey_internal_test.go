package dls

import (
	"testing"

	"repro/internal/platform"
)

// keyBase is a prepared p = 6 request carrying every keyed field.
func keyBase() Request {
	p := platform.New(
		platform.Worker{C: 0.05, W: 0.3, D: 0.025}, platform.Worker{C: 0.08, W: 0.2, D: 0.04},
		platform.Worker{C: 0.1, W: 0.5, D: 0.05}, platform.Worker{C: 0.02, W: 0.9, D: 0.01},
		platform.Worker{C: 0.07, W: 0.4, D: 0.035}, platform.Worker{C: 0.03, W: 0.6, D: 0.015},
	)
	return Request{
		Platform: p, Strategy: StrategyScenarioAffine, Model: OnePort, Arith: Float64, Eval: EvalAuto,
		Send: Order{0, 1, 2, 3, 4, 5}, Return: Order{5, 4, 3, 2, 1, 0},
		Affine: &Affine{In: make([]float64, 6), Out: make([]float64, 6), Comp: make([]float64, 6)},
	}
}

// TestCacheKeyDistinguishes pins what the cache key tells apart: the
// platform costs, strategy, model, arithmetic, eval mode, the exact send
// and return orders and the affine costs — and what it ignores: Load and
// worker names.
func TestCacheKeyDistinguishes(t *testing.T) {
	base := keyBase()
	key := base.cacheKey()

	same := []func(*Request){
		func(r *Request) { r.Load = 1000 },
		func(r *Request) {
			r.Platform = r.Platform.Clone()
			r.Platform.Workers[0].Name = "renamed"
		},
	}
	for i, mutate := range same {
		r := keyBase()
		mutate(&r)
		if r.cacheKey() != key {
			t.Errorf("irrelevant change %d moved the key", i)
		}
	}

	differ := map[string]func(*Request){
		"platform cost": func(r *Request) {
			r.Platform = r.Platform.Clone()
			r.Platform.Workers[5].W = 0.61
		},
		"worker count": func(r *Request) {
			r.Platform = platform.New(r.Platform.Workers[:5]...)
		},
		"strategy":     func(r *Request) { r.Strategy = StrategyScenario },
		"model":        func(r *Request) { r.Model = TwoPort },
		"arith":        func(r *Request) { r.Arith = Exact },
		"eval":         func(r *Request) { r.Eval = EvalSimplex },
		"send order":   func(r *Request) { r.Send = Order{0, 1, 2, 3, 5, 4} },
		"return order": func(r *Request) { r.Return = Order{5, 4, 3, 2, 0, 1} },
		"send length":  func(r *Request) { r.Send = Order{0, 1, 2, 3, 4} },
		"orders swap":  func(r *Request) { r.Send, r.Return = r.Return, r.Send },
		"no affine":    func(r *Request) { r.Affine = nil },
		"affine cost": func(r *Request) {
			r.Affine = &Affine{In: make([]float64, 6), Out: make([]float64, 6), Comp: []float64{1, 0, 0, 0, 0, 0}}
		},
		"order boundary": func(r *Request) { r.Send, r.Return = Order{0, 1, 2, 3, 4, 5, 5}, Order{4, 3, 2, 1, 0} },
	}
	seen := map[string]string{key: "base"}
	for name, mutate := range differ {
		r := keyBase()
		mutate(&r)
		k := r.cacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares a key with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestCacheKeyAllocations pins the key to a single allocation: the
// returned string.
func TestCacheKeyAllocations(t *testing.T) {
	req := keyBase()
	if allocs := testing.AllocsPerRun(100, func() { _ = req.cacheKey() }); allocs > 1 {
		t.Errorf("cacheKey allocates %v times per call, want <= 1", allocs)
	}
}
