package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/dls"
	"repro/internal/server"
)

// relTol is the relative slack of the search dominance check.
const relTol = 1e-9

// solveAll solves every request on a cache-less reference solver, one
// goroutine per CPU. The reference never shares state with the program
// under test.
func solveAll(reqs []dls.Request) ([]*dls.Result, error) {
	ref, err := dls.NewSolver()
	if err != nil {
		return nil, err
	}
	out := make([]*dls.Result, len(reqs))
	errs := make([]error, len(reqs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				out[i], errs[i] = ref.Solve(context.Background(), reqs[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference solve of request %d: %w", i, err)
		}
	}
	return out, nil
}

// references are the two answers the program may serve for each pool
// entry, both computed in-process by a cache-less solver: Solve's, and
// SolveBatch's, whose SoA chain prepass answers chain-shaped requests
// that have company in their window. dlsd picks the path per window, so
// a served answer must equal one of the two bit for bit.
type references struct {
	solve, batch []*dls.Result
}

// newReferences computes both reference answers for pool, batching it in
// chunks of coldCallSize as dlsd's windows do.
func newReferences(pool []dls.Request) (*references, error) {
	solve, err := solveAll(pool)
	if err != nil {
		return nil, err
	}
	ref, err := dls.NewSolver()
	if err != nil {
		return nil, err
	}
	var batch []*dls.Result
	for lo := 0; lo < len(pool); lo += coldCallSize {
		hi := min(lo+coldCallSize, len(pool))
		res, err := ref.SolveBatch(context.Background(), pool[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("reference batch solve: %w", err)
		}
		batch = append(batch, res...)
	}
	return &references{solve: solve, batch: batch}, nil
}

// check reports how got differs from both references of pool entry i.
func (r *references) check(i int, got *server.SolveResponse) error {
	err := sameAnswer(got, wireOf(r.solve[i]))
	if err == nil || sameAnswer(got, wireOf(r.batch[i])) == nil {
		return nil
	}
	return err
}

// mismatches counts the pool entries whose two reference answers differ:
// problems on which the batch prepass and Solve disagree.
func (r *references) mismatches() int {
	n := 0
	for i := range r.solve {
		if sameAnswer(wireOf(r.batch[i]), wireOf(r.solve[i])) != nil {
			n++
		}
	}
	return n
}

// wireOf is the response dlsd must send for res: the server's wire form,
// field for field.
func wireOf(res *dls.Result) *server.SolveResponse {
	out := &server.SolveResponse{
		Strategy:   res.Strategy,
		Model:      dls.ModelName(res.Model),
		Arith:      dls.ArithName(res.Arith),
		Eval:       res.Eval.String(),
		Throughput: res.Throughput,
		Makespan:   res.Makespan,
		Cached:     res.Cached,
		Send:       res.Send,
		Return:     res.Return,
		Degraded:   res.Degraded,
		DegradedTo: res.DegradedTo,
	}
	switch {
	case res.Schedule != nil:
		out.Alpha = res.Schedule.Alpha
	case res.Affine != nil:
		out.Alpha = res.Affine.Alpha
	}
	return out
}

// sameAnswer reports how got differs from want, bit for bit on every
// float. Cached is ignored: whether the cache answered is not part of the
// answer.
func sameAnswer(got, want *server.SolveResponse) error {
	if got == nil {
		return fmt.Errorf("missing result")
	}
	switch {
	case got.Strategy != want.Strategy, got.Model != want.Model, got.Arith != want.Arith, got.Eval != want.Eval:
		return fmt.Errorf("echo %s/%s/%s/%s, want %s/%s/%s/%s",
			got.Strategy, got.Model, got.Arith, got.Eval, want.Strategy, want.Model, want.Arith, want.Eval)
	case got.Degraded != want.Degraded || got.DegradedTo != want.DegradedTo:
		return fmt.Errorf("degraded %v/%q, want %v/%q", got.Degraded, got.DegradedTo, want.Degraded, want.DegradedTo)
	case math.Float64bits(got.Throughput) != math.Float64bits(want.Throughput):
		return fmt.Errorf("throughput %v, want %v", got.Throughput, want.Throughput)
	case math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan):
		return fmt.Errorf("makespan %v, want %v", got.Makespan, want.Makespan)
	case !equalInts(got.Send, want.Send) || !equalInts(got.Return, want.Return):
		return fmt.Errorf("orders %v/%v, want %v/%v", got.Send, got.Return, want.Send, want.Return)
	case len(got.Alpha) != len(want.Alpha):
		return fmt.Errorf("%d loads, want %d", len(got.Alpha), len(want.Alpha))
	}
	for i := range got.Alpha {
		if math.Float64bits(got.Alpha[i]) != math.Float64bits(want.Alpha[i]) {
			return fmt.Errorf("alpha[%d] %v, want %v", i, got.Alpha[i], want.Alpha[i])
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkBody checks one response body of a serving unit against the
// reference answers of the pool entries it carries.
func checkBody(path string, body []byte, members []int, refs *references) error {
	if path == "/v1/solve" {
		var got server.SolveResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
		return refs.check(members[0], &got)
	}
	var got server.BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding batch response: %w", err)
	}
	if len(got.Errors) > 0 {
		return fmt.Errorf("batch slot errors: %q", got.Errors)
	}
	if len(got.Results) != len(members) {
		return fmt.Errorf("%d batch results, want %d", len(got.Results), len(members))
	}
	for k, i := range members {
		if err := refs.check(i, got.Results[k]); err != nil {
			return fmt.Errorf("slot %d: %w", k, err)
		}
	}
	return nil
}

// bodyLog keeps the distinct response bodies seen per serving unit, with
// how often each came back, so a run of thousands of responses is checked
// after the timed phase at the cost of a few hundred decodes. Safe for
// concurrent use.
type bodyLog struct {
	mu   sync.Mutex
	seen [][]seenBody // seen[unit] = distinct bodies
}

type seenBody struct {
	body []byte
	n    int
}

func newBodyLog(units int) *bodyLog { return &bodyLog{seen: make([][]seenBody, units)} }

// add records body as an answer to unit (copying it when new).
func (l *bodyLog) add(unit int, body []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.seen[unit] {
		if bytes.Equal(l.seen[unit][i].body, body) {
			l.seen[unit][i].n++
			return
		}
	}
	l.seen[unit] = append(l.seen[unit], seenBody{body: bytes.Clone(body), n: 1})
}

// check verifies every distinct body and returns how many requests were
// answered wrongly, with the first difference found.
func (l *bodyLog) check(in *servingInputs, refs *references) (wrong int, first error) {
	for unit, bodies := range l.seen {
		for _, b := range bodies {
			if err := checkBody(in.path, b.body, in.members[unit], refs); err != nil {
				wrong += b.n * len(in.members[unit])
				if first == nil {
					first = fmt.Errorf("unit %d: %w", unit, err)
				}
			}
		}
	}
	return wrong, first
}

// heuristicOf is the closed-form baseline a search answer must dominate:
// inc-c for FIFO and pair searches, the optimal LIFO for LIFO searches,
// and the affine scenario on the inc-c FIFO order for the affine search.
func heuristicOf(req dls.Request) dls.Request {
	h := dls.Request{Platform: req.Platform, Model: req.Model, Affine: req.Affine}
	switch req.Strategy {
	case dls.StrategyLIFOExhaustive:
		h.Strategy = dls.StrategyLIFO
	case dls.StrategyFIFOAffine:
		h.Strategy = dls.StrategyScenarioAffine
		h.Send = req.Platform.ByC()
		h.Return = h.Send
	default:
		h.Strategy = dls.StrategyIncC
	}
	return h
}

// checkSearch verifies one search answer: a linear schedule must pass the
// independent feasibility checker, an affine answer must be reproduced by
// solving its own scenario, and the throughput must not fall below the
// heuristic's by more than relTol.
func checkSearch(ref *dls.Solver, req dls.Request, res *dls.Result, heuristic float64) error {
	if res == nil {
		return fmt.Errorf("missing result")
	}
	if res.Degraded {
		return fmt.Errorf("degraded to %s", res.DegradedTo)
	}
	switch {
	case res.Schedule != nil:
		if err := res.Schedule.Check(req.Platform, req.Model); err != nil {
			return fmt.Errorf("schedule check: %w", err)
		}
		if got := res.Schedule.Throughput(); got != res.Throughput {
			return fmt.Errorf("throughput %v disagrees with its schedule's %v", res.Throughput, got)
		}
	case res.Affine != nil:
		own, err := ref.Solve(context.Background(), dls.Request{
			Platform: req.Platform, Strategy: dls.StrategyScenarioAffine, Model: req.Model,
			Affine: req.Affine, Send: res.Send, Return: res.Return,
		})
		if err != nil {
			return fmt.Errorf("re-solving the affine scenario: %w", err)
		}
		if math.Abs(own.Throughput-res.Throughput) > relTol*math.Abs(own.Throughput) {
			return fmt.Errorf("affine throughput %v, its own scenario gives %v", res.Throughput, own.Throughput)
		}
	default:
		return fmt.Errorf("result carries no schedule")
	}
	if res.Throughput < heuristic*(1-relTol) {
		return fmt.Errorf("throughput %v below the %s heuristic's %v", res.Throughput, heuristicOf(req).Strategy, heuristic)
	}
	return nil
}
