package main

import (
	"fmt"
	"time"

	"repro/dls"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/eval/kern"
)

// lane is one fixed FIFO or LIFO scenario of the kind eval.Batch runs.
type lane struct {
	plat  *dls.Platform
	send  dls.Order
	lifo  bool
	model dls.Model
}

func (ln lane) scenario() eval.Scenario {
	ret := ln.send
	if ln.lifo {
		ret = ln.send.Reverse()
	}
	return eval.Scenario{Platform: ln.plat, Send: ln.send, Return: ret, Model: ln.model}
}

// chainLane derives the scenario a chain-mix request resolves to, as the
// solver's batch prepass does.
func chainLane(req dls.Request) lane {
	ln := lane{plat: req.Platform, model: req.Model}
	switch req.Strategy {
	case dls.StrategyIncC:
		ln.send = req.Platform.ByC()
	case dls.StrategyIncW:
		ln.send = req.Platform.ByW()
	case dls.StrategyDecC:
		ln.send = req.Platform.ByCDesc()
	case dls.StrategyLIFO:
		ln.send, ln.lifo = req.Platform.ByC(), true
	default:
		ln.send = req.Send
	}
	return ln
}

// servingLanes returns the lanes of the first n pool requests.
func servingLanes(pool []dls.Request, n int) []lane {
	n = min(n, len(pool))
	out := make([]lane, n)
	for i := range out {
		out[i] = chainLane(pool[i])
	}
	return out
}

// searchLanes returns, per problem, the inc-c FIFO and the optimal-LIFO
// scenario: the lanes the pair search seeds its incumbent with.
func searchLanes(corpus []dls.Request) []lane {
	var out []lane
	for _, req := range corpus {
		byC := req.Platform.ByC()
		out = append(out, lane{plat: req.Platform, send: byC, model: req.Model},
			lane{plat: req.Platform, send: byC, lifo: true, model: dls.OnePort})
	}
	return out
}

// laneKey groups lanes that can share one eval.Batch.
type laneKey struct {
	q     int
	lifo  bool
	model dls.Model
}

// evalLayer runs the workload's lanes through eval.Batch in window-sized
// groups, and its scenarios through one eval.Session, each in whole passes
// until microCalls lanes or scenarios have run.
func (t *tracedRun) evalLayer() error {
	groups := make(map[laneKey][]lane)
	var keys []laneKey
	for _, ln := range t.lanes {
		k := laneKey{len(ln.send), ln.lifo, ln.model}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], ln)
	}
	var runTime time.Duration
	lanes, certified, req := 0, 0, 0
	for lanes < microCalls && len(t.lanes) > 0 {
		for _, k := range keys {
			g := groups[k]
			for lo := 0; lo < len(g); lo += coldCallSize {
				chunk := g[lo:min(lo+coldCallSize, len(g))]
				req++
				root := t.rec.begin("eval.batch", 0, req)
				var (
					b   *eval.Batch
					err error
				)
				t.rec.time("eval.batch.new", root, req, func() { b, err = eval.NewBatch(k.model, k.lifo, k.q) })
				if err != nil {
					return err
				}
				t.rec.time("eval.batch.add", root, req, func() {
					for _, ln := range chunk {
						if err == nil {
							err = b.Add(ln.plat, ln.send)
						}
					}
				})
				if err != nil {
					return err
				}
				runTime += t.rec.time("eval.batch.run", root, req, b.Run)
				t.rec.time("eval.batch.schedule", root, req, func() {
					for i := range chunk {
						if _, err := b.Schedule(i); err == nil {
							certified++
						}
					}
				})
				t.rec.end(root)
				lanes += len(chunk)
			}
		}
	}
	t.vals["eval.batch_ns_per_lane"] = ratio(float64(runTime), float64(lanes))
	t.vals["eval.batch_certified_ratio"] = ratio(float64(certified), float64(lanes))

	sess := eval.NewSession()
	var evals, simplex int
	for evals < microCalls && len(t.scenarios) > 0 {
		for _, sc := range t.scenarios {
			req++
			var err error
			t.rec.time("eval.session.evaluate", 0, req, func() { _, err = sess.Evaluate(sc, eval.Auto) })
			if err != nil {
				return fmt.Errorf("eval: %w", err)
			}
			if backend, _ := sess.Backend(); backend == "simplex" {
				simplex++
			}
			evals++
			t.rec.time("eval.session.throughput", 0, req, func() { _, err = sess.Throughput(sc, eval.Auto) })
			if err != nil {
				return fmt.Errorf("eval: %w", err)
			}
		}
	}
	t.vals["eval.backend_us"] = perReq(t.rec.byName("eval.session.evaluate"), evals)
	t.vals["eval.scenario_us"] = perReq(t.rec.byName("eval.session.throughput"), evals)
	t.vals["eval.simplex_share"] = ratio(float64(simplex), float64(evals))
	return nil
}

// microCalls is the least number of calls each in-process layer
// measurement (eval, lp) makes; kernSpans spans of kernCalls kernel calls
// each time the kernels, whose single calls take tens of nanoseconds.
const (
	microCalls = 2000
	kernSpans  = 50
	kernCalls  = 1000
)

// kernLayer times kern.FIFOChain and kern.LIFOChain on one chunk of
// kern.Width lanes built from the workload's most common scenario size.
func (t *tracedRun) kernLayer() {
	count := make(map[int]int)
	q := 0
	for _, ln := range t.lanes {
		count[len(ln.send)]++
		if count[len(ln.send)] > count[q] {
			q = len(ln.send)
		}
	}
	var chunk []lane
	for _, ln := range t.lanes {
		if len(ln.send) == q && len(chunk) < kern.Width {
			chunk = append(chunk, ln)
		}
	}
	if len(chunk) == 0 {
		return
	}
	n := q * kern.Width
	col := func() []float64 { return make([]float64, n) }
	p, c, d, w, wd, invCW, invCWD := col(), col(), col(), col(), col(), col(), col()
	sp, sc, sd := make([]float64, kern.Width), make([]float64, kern.Width), make([]float64, kern.Width)
	for l := 0; l < kern.Width; l++ {
		ln := chunk[l%len(chunk)]
		for pos, i := range ln.send {
			wk := ln.plat.Workers[i]
			at := pos*kern.Width + l
			c[at], d[at], w[at] = wk.C, wk.D, wk.W
			wd[at], invCW[at], invCWD[at] = wk.W+wk.D, 1/(wk.C+wk.W), 1/(wk.C+wk.W+wk.D)
		}
	}
	run := func(name string, f func()) float64 {
		var total time.Duration
		for s := 0; s < kernSpans; s++ {
			total += t.rec.time(name, 0, 0, func() {
				for i := 0; i < kernCalls; i++ {
					f()
				}
			})
		}
		return ratio(float64(total), kernSpans*kernCalls)
	}
	t.vals["kern.fifo_chain_ns"] = run("kern.fifo_chain", func() { kern.FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd) })
	t.vals["kern.lifo_chain_ns"] = run("kern.lifo_chain", func() { kern.LIFOChain(q, p, w, invCWD, sp) })
}

// lpLayer solves the scenario LPs of the workload's scenarios (and affine
// problems on their inc-c order) with the float64 simplex.
func (t *tracedRun) lpLayer() error {
	var solves []func() error
	for _, sc := range t.scenarios[:min(len(t.scenarios), 256)] {
		prob, err := core.ScenarioLP(sc.Platform, sc.Send, sc.Return, sc.Model)
		if err != nil {
			return err
		}
		solves = append(solves, func() error { _, err := prob.Solve(); return err })
	}
	for _, req := range t.affine {
		byC := req.Platform.ByC()
		prob, err := core.ScenarioLPAffine(req.Platform, *req.Affine, byC, byC, req.Model)
		if err != nil {
			return err
		}
		solves = append(solves, func() error { _, err := prob.Solve(); return err })
	}
	n := 0
	for n < microCalls && len(solves) > 0 {
		for _, solve := range solves {
			var err error
			t.rec.time("lp.solve", 0, 0, func() { err = solve() })
			if err != nil {
				return fmt.Errorf("lp: %w", err)
			}
			n++
		}
	}
	t.vals["lp.solve_us"] = perReq(t.rec.byName("lp.solve"), n)
	return nil
}
