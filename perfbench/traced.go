package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/dls"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/eval/kern"
	"repro/internal/obs"
	"repro/internal/server"
)

// perLayer lists every per-layer metric the traced run prints, with its
// unit. A layer a workload never enters reports 0. README.md defines each
// one and the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.serve_us", "us"},
	{"server.unattributed_us", "us"},
	{"dls.batcher.queue_wait_us", "us"},
	{"dls.batcher.window_wait_us", "us"},
	{"dls.batcher.window_fill", "count"},
	{"dls.batcher.shed", "count"},
	{"dls.solver.solve_us", "us"},
	{"dls.solver.hit_us", "us"},
	{"dls.solver.batch_us_per_req", "us"},
	{"dls.solver.cache_hit_ratio", "ratio"},
	{"dls.solver.evictions_per_req", "ratio"},
	{"dls.solver.prepass_ratio", "ratio"},
	{"dls.solver.prepass_solve_mismatch", "count"},
	{"eval.batch_ns_per_lane", "ns"},
	{"eval.batch_certified_ratio", "ratio"},
	{"eval.backend_us", "us"},
	{"eval.scenario_us", "us"},
	{"eval.simplex_share", "ratio"},
	{"kern.fifo_chain_ns", "ns"},
	{"kern.lifo_chain_ns", "ns"},
	{"core.fifo_exhaustive_ms", "ms"},
	{"core.lifo_exhaustive_ms", "ms"},
	{"core.pair_exhaustive_ms", "ms"},
	{"core.affine_ms", "ms"},
	{"core.pair_leaves", "count"},
	{"core.pair_pruned_frac", "ratio"},
	{"core.affine_leaves", "count"},
	{"core.affine_pruned_frac", "ratio"},
	{"lp.solve_us", "us"},
	{"obs.overhead_frac", "ratio"},
	{"bench.late_p99_ms", "ms"},
}

// tracedRun accumulates the per-layer figures of one traced run.
type tracedRun struct {
	cfg  config
	rec  *recorder
	res  *result
	vals map[string]float64
	// Inputs of the eval, kern and lp measurements, drawn from the
	// workload's own problems.
	lanes     []lane
	scenarios []eval.Scenario
	affine    []dls.Request
}

// traced runs the workload's traced run: the serving workloads drive dlsd
// untraced and then with -trace=true for a third of the run each, and
// every workload replays its inputs through each layer's public functions
// in-process, with a span around every call.
func traced(cfg config) (*result, error) {
	t := &tracedRun{cfg: cfg, rec: newRecorder(), res: &result{Correct: true}, vals: make(map[string]float64)}
	phase := cfg.duration() / 3
	var err error
	if cfg.workload == Search {
		err = t.search(phase)
	} else {
		err = t.serving(phase)
	}
	if err != nil {
		return nil, err
	}
	if err := t.evalLayer(); err != nil {
		return nil, err
	}
	t.kernLayer()
	if err := t.lpLayer(); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		t.res.set(m.name, t.vals[m.name], m.unit)
	}
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	labels := map[string]string{"kern.variant": kern.Variant()}
	if err := t.rec.write(path, cfg.workload, cfg.seed, labels); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (kern variant %s)\n", len(t.rec.spans), path, labels["kern.variant"])
	return t.res, nil
}

// account adds one phase's requests to the result.
func (t *tracedRun) account(attempted, failed, wrong int) {
	t.res.Attempted += attempted
	t.res.Failed += failed + wrong
	if wrong > 0 {
		t.res.Correct = false
	}
}

// perReq divides a set of span durations by a request count, in µs.
func perReq(ds []time.Duration, reqs int) float64 {
	if reqs == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return float64(total) / float64(time.Microsecond) / float64(reqs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serving runs the two dlsd phases and the in-process replay.
func (t *tracedRun) serving(phase time.Duration) error {
	in, err := newServingInputs(t.cfg.workload, t.cfg.seed)
	if err != nil {
		return err
	}
	refs, err := newReferences(in.pool)
	if err != nil {
		return err
	}
	t.vals["dls.solver.prepass_solve_mismatch"] = float64(refs.mismatches())
	t.lanes = servingLanes(in.pool, 1024)
	for _, ln := range t.lanes {
		t.scenarios = append(t.scenarios, ln.scenario())
	}

	plain, _, _, err := t.dlsdPhase(in, refs, false, phase)
	if err != nil {
		return err
	}
	trc, before, after, err := t.dlsdPhase(in, refs, true, phase)
	if err != nil {
		return err
	}
	if t.cfg.workload == ChainHot {
		late := append(plain.load.lateMS, trc.load.lateMS...)
		sort.Float64s(late)
		if t.vals["bench.late_p99_ms"], err = percentile(late, 0.99); err != nil {
			return fmt.Errorf("generator lateness: %w", err)
		}
	}
	cpuPerReq := func(r servedRun) float64 { return ratio(float64(total(r.cpu)), float64(r.load.succeeded)) }
	t.vals["obs.overhead_frac"] = ratio(cpuPerReq(trc), cpuPerReq(plain)) - 1

	stage := func(name string) float64 {
		key := `dlsd_stage_latency_seconds_%s{stage="` + name + `"}`
		return ratio(delta(before, after, fmt.Sprintf(key, "sum")), delta(before, after, fmt.Sprintf(key, "count"))) * 1e6
	}
	t.vals["dls.batcher.queue_wait_us"] = stage("queue_wait")
	t.vals["dls.batcher.window_wait_us"] = stage("window_wait")
	t.vals["dls.solver.solve_us"] = stage("solve")
	t.vals["dls.batcher.window_fill"] = ratio(delta(before, after, "dlsd_window_size_sum"), delta(before, after, "dlsd_window_size_count"))
	t.vals["dls.batcher.shed"] = delta(before, after, "dlsd_shed_total")
	hits, misses := delta(before, after, "dlsd_cache_hits_total"), delta(before, after, "dlsd_cache_misses_total")
	t.vals["dls.solver.cache_hit_ratio"] = ratio(hits, hits+misses)
	t.vals["dls.solver.evictions_per_req"] = ratio(delta(before, after, "dlsd_cache_evictions_total"), float64(trc.load.succeeded))
	t.vals["dls.solver.prepass_ratio"] = ratio(delta(before, after, "dlsd_prepass_requests_total"), misses)

	return t.replayServing(in, refs, phase)
}

// dlsdPhase starts dlsd (traced or not), warms it, drives the workload for
// d, checks the answers and returns the run with /metrics scraped around
// the timed part.
func (t *tracedRun) dlsdPhase(in *servingInputs, refs *references, trace bool, d time.Duration) (servedRun, map[string]float64, map[string]float64, error) {
	var sr servedRun
	srv, err := startDlsd(t.cfg.dlsd, trace)
	if err != nil {
		return sr, nil, nil, err
	}
	defer srv.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	if err := warm(client, srv.base, in.warmup); err != nil {
		return sr, nil, nil, err
	}
	before, err := scrape(client, srv.base)
	if err != nil {
		return sr, nil, nil, err
	}
	log := newBodyLog(len(in.bodies))
	if sr, err = driveServer(t.cfg, in, srv.base, srv.pid(), d, log); err != nil {
		return sr, nil, nil, err
	}
	after, err := scrape(client, srv.base)
	if err != nil {
		return sr, nil, nil, err
	}
	sr.wrong, sr.wrongAt = log.check(in, refs)
	if sr.wrongAt != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", sr.wrongAt)
	}
	t.account(sr.load.attempted, sr.load.failed, sr.wrong)
	return sr, before, after, nil
}

// dlsdSolver builds a solver configured as dlsd's defaults configure it.
func dlsdSolver() (*dls.Solver, error) {
	return dls.NewSolver(dls.WithParallelism(runtime.GOMAXPROCS(0)), dls.WithDegradation(),
		dls.WithCache(coldCacheCap), dls.WithTimeout(30*time.Second))
}

// dlsdBatcherConfig is the admission batcher dlsd's defaults build.
var dlsdBatcherConfig = dls.BatcherConfig{MaxDelay: 2 * time.Millisecond, MaxSize: 64, QueueCap: 1024, Workers: 2}

// replayServing replays the workload's units in-process for d. Each unit
// goes through three independent stacks configured as dlsd is:
//
//   - server.Server.ServeHTTP on an in-memory request (span
//     server.serve_http);
//   - the parts ServeHTTP is made of, called one after the other under a
//     replay.request span: JSON decode (server.decode), admission and
//     solve through a dls.Batcher (dls.batcher.submit), JSON encode of the
//     response (server.encode);
//   - dls.Solver.Solve (chain-hot) or SolveBatch (chain-cold) on its own
//     (dls.solver.solve, dls.solver.solve_batch).
//
// ServeHTTP time the parts do not account for is server.unattributed_us.
func (t *tracedRun) replayServing(in *servingInputs, refs *references, d time.Duration) error {
	var solvers [3]*dls.Solver
	for i := range solvers {
		s, err := dlsdSolver()
		if err != nil {
			return err
		}
		solvers[i] = s
	}
	srv, err := server.New(server.Config{
		Solver: solvers[0], Window: dlsdBatcherConfig.MaxDelay, WindowSize: dlsdBatcherConfig.MaxSize,
		QueueCap: dlsdBatcherConfig.QueueCap, Workers: dlsdBatcherConfig.Workers,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	twin := solvers[1].NewBatcher(dlsdBatcherConfig)
	defer twin.Close()
	direct := solvers[2]
	ctx := context.Background()

	for _, p := range in.warmup {
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(p.body)))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("in-process warm-up answered %d", rw.Code)
		}
	}
	if t.cfg.workload == ChainHot {
		for _, req := range in.pool {
			if _, err := twin.Submit(ctx, req); err != nil {
				return err
			}
			if _, err := direct.Solve(ctx, req); err != nil {
				return err
			}
		}
	}

	var picks []int
	if t.cfg.workload == ChainHot {
		picks = poissonArrivals(rand.New(rand.NewSource(arrivalSeed(t.cfg.seed))), hotRate, d, len(in.bodies)).pick
	}
	var (
		reqs, attempted, failed, wrong int
		hitTimes                       []time.Duration
	)
	stop := time.Now().Add(d)
	for k := 0; time.Now().Before(stop); k++ {
		unit := k % len(in.bodies)
		if picks != nil {
			if k >= len(picks) {
				break
			}
			unit = picks[k]
		}
		body, n, id := in.bodies[unit], len(in.members[unit]), k+1
		attempted += n

		rw := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, in.path, bytes.NewReader(body))
		t.rec.time("server.serve_http", 0, id, func() { srv.ServeHTTP(rw, hr) })
		if rw.Code != http.StatusOK {
			failed += n
		} else if err := checkBody(in.path, rw.Body.Bytes(), in.members[unit], refs); err != nil {
			wrong += n
			fmt.Fprintln(os.Stderr, "perfbench: wrong in-process answer:", err)
		}

		root := t.rec.begin("replay.request", 0, id)
		var (
			one   dls.Request
			batch server.BatchRequest
			resp  any
			err   error
		)
		t.rec.time("server.decode", root, id, func() {
			if in.path == "/v1/solve" {
				err = json.Unmarshal(body, &one)
			} else {
				err = json.Unmarshal(body, &batch)
			}
		})
		if err != nil {
			return fmt.Errorf("decoding unit %d: %w", unit, err)
		}
		t.rec.time("dls.batcher.submit", root, id, func() {
			if in.path == "/v1/solve" {
				var res *dls.Result
				if res, err = twin.Submit(ctx, one); err == nil {
					resp = wireOf(res)
				}
				return
			}
			resp, err = submitAll(ctx, twin, batch.Requests)
		})
		if err != nil {
			return fmt.Errorf("batcher replay of unit %d: %w", unit, err)
		}
		t.rec.time("server.encode", root, id, func() {
			var buf bytes.Buffer
			err = json.NewEncoder(&buf).Encode(resp)
		})
		if err != nil {
			return err
		}
		t.rec.end(root)

		if in.path == "/v1/solve" {
			var res *dls.Result
			dt := t.rec.time("dls.solver.solve", 0, id, func() { res, err = direct.Solve(ctx, one) })
			if err == nil && res.Cached {
				hitTimes = append(hitTimes, dt)
			}
		} else {
			t.rec.time("dls.solver.solve_batch", 0, id, func() { _, err = direct.SolveBatch(ctx, batch.Requests) })
		}
		if err != nil {
			return fmt.Errorf("solver replay of unit %d: %w", unit, err)
		}
		reqs += n
	}
	t.account(attempted, failed, wrong)

	serveUS := perReq(t.rec.byName("server.serve_http"), reqs)
	decodeUS := perReq(t.rec.byName("server.decode"), reqs)
	encodeUS := perReq(t.rec.byName("server.encode"), reqs)
	submitUS := perReq(t.rec.byName("dls.batcher.submit"), reqs)
	t.vals["server.serve_us"] = serveUS
	t.vals["server.decode_us"] = decodeUS
	t.vals["server.encode_us"] = encodeUS
	t.vals["server.unattributed_us"] = serveUS - decodeUS - submitUS - encodeUS
	t.vals["dls.solver.hit_us"] = perReq(hitTimes, len(hitTimes))
	t.vals["dls.solver.batch_us_per_req"] = perReq(t.rec.byName("dls.solver.solve_batch"), reqs)
	return nil
}

// submitAll submits every request of a batch call concurrently, as the
// batch handler does, and returns the batch response.
func submitAll(ctx context.Context, b *dls.Batcher, reqs []dls.Request) (*server.BatchResponse, error) {
	out := &server.BatchResponse{Results: make([]*server.SolveResponse, len(reqs))}
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req dls.Request) {
			defer wg.Done()
			res, err := b.Submit(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			out.Results[i] = wireOf(res)
		}(i, req)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// search measures tracing overhead with paired solves, then replays
// corpus problems through dls.Solver.Solve and the core searches.
func (t *tracedRun) search(phase time.Duration) error {
	corpus := searchCorpusOf(t.cfg.seed, searchCorpus)
	solver, err := dls.NewSolver()
	if err != nil {
		return err
	}
	for _, req := range warmupProblems() {
		if _, err := solver.Solve(context.Background(), req); err != nil {
			return err
		}
	}

	// Tracing overhead: each problem solved untraced and traced, the order
	// alternating, the process CPU of each solve summed per side.
	var (
		plainCPU, tracedCPU time.Duration
		results             []*dls.Result
		failed              int
	)
	stop := time.Now().Add(phase)
	i := 0
	for ; time.Now().Before(stop) && i < len(corpus); i++ {
		req := corpus[i]
		plainCtx := context.Background()
		tr := obs.NewTrace(strconv.Itoa(i), "search", time.Now)
		tracedCtx := obs.ContextWithTraces(context.Background(), []*obs.Trace{tr})
		var res *dls.Result
		for k := 0; k < 2; k++ {
			c0, err := processCPU()
			if err != nil {
				return err
			}
			if (i+k)%2 == 0 {
				if res, err = solver.Solve(plainCtx, req); err != nil {
					failed++
				}
			} else {
				if _, err = solver.Solve(tracedCtx, req); err != nil {
					failed++
				}
				tr.Finish()
			}
			c1, err := processCPU()
			if err != nil {
				return err
			}
			if (i+k)%2 == 0 {
				plainCPU += c1 - c0
			} else {
				tracedCPU += c1 - c0
			}
		}
		results = append(results, res)
	}
	t.vals["obs.overhead_frac"] = ratio(float64(tracedCPU), float64(plainCPU)) - 1
	wrong, err := checkSearchResults(corpus, results)
	if err != nil {
		return err
	}
	t.account(2*i, failed, wrong)

	// Replay: fresh problems through Solve and through their core search.
	ctx := core.ContextWithSearchParallelism(context.Background(), 0)
	var (
		solveTimes        []time.Duration
		coreTimes         = make(map[string][]time.Duration)
		pair0, pair1      core.PairStats
		aff0, aff1        core.AffineStats
		pairRuns, affRuns int
		attempted         int
	)
	addPair := func(a, b core.PairStats) {
		pair1.SubtreesPruned += b.SubtreesPruned - a.SubtreesPruned
		pair1.LeavesEvaluated += b.LeavesEvaluated - a.LeavesEvaluated
	}
	addAff := func(a, b core.AffineStats) {
		aff1.SubtreesPruned += b.SubtreesPruned - a.SubtreesPruned
		aff1.LeavesEvaluated += b.LeavesEvaluated - a.LeavesEvaluated
	}
	stop = time.Now().Add(phase)
	for j := i; time.Now().Before(stop) && j < len(corpus); j++ {
		req := corpus[j]
		id := j + 1
		attempted++
		var err error
		solveTimes = append(solveTimes, t.rec.time("dls.solver.solve", 0, id, func() { _, err = solver.Solve(context.Background(), req) }))
		if err != nil {
			t.account(0, 1, 0)
		}
		var name string
		var call func() error
		switch req.Strategy {
		case dls.StrategyFIFOExhaustive:
			name, call = "core.fifo_exhaustive", func() error {
				_, _, err := core.BestFIFOExhaustiveEval(ctx, req.Platform, req.Model, eval.Auto)
				return err
			}
		case dls.StrategyLIFOExhaustive:
			name, call = "core.lifo_exhaustive", func() error {
				_, _, err := core.BestLIFOExhaustiveEval(ctx, req.Platform, req.Model, eval.Auto)
				return err
			}
		case dls.StrategyPairExhaustive:
			name, call = "core.pair_exhaustive", func() error {
				pair0 = core.PairStatsSnapshot()
				_, err := core.BestPairExhaustiveEval(ctx, req.Platform, req.Model, eval.Auto)
				addPair(pair0, core.PairStatsSnapshot())
				pairRuns++
				return err
			}
		case dls.StrategyFIFOAffine:
			name, call = "core.affine", func() error {
				aff0 = core.AffineStatsSnapshot()
				_, err := core.BestFIFOAffineContext(ctx, req.Platform, *req.Affine, core.Float64)
				addAff(aff0, core.AffineStatsSnapshot())
				affRuns++
				return err
			}
		}
		attempted++
		coreTimes[name] = append(coreTimes[name], t.rec.time(name, 0, id, func() { err = call() }))
		if err != nil {
			t.account(0, 1, 0)
		}
		if len(t.affine) < 32 && req.Affine != nil {
			t.affine = append(t.affine, req)
		}
	}
	t.account(attempted, 0, 0)
	t.vals["dls.solver.solve_us"] = perReq(solveTimes, len(solveTimes))
	for _, name := range []string{"core.fifo_exhaustive", "core.lifo_exhaustive", "core.pair_exhaustive", "core.affine"} {
		t.vals[name+"_ms"] = perReq(coreTimes[name], len(coreTimes[name])) / 1e3
	}
	t.vals["core.pair_leaves"] = ratio(float64(pair1.LeavesEvaluated), float64(pairRuns))
	t.vals["core.pair_pruned_frac"] = ratio(float64(pair1.SubtreesPruned), float64(pair1.SubtreesPruned+pair1.LeavesEvaluated))
	t.vals["core.affine_leaves"] = ratio(float64(aff1.LeavesEvaluated), float64(affRuns))
	t.vals["core.affine_pruned_frac"] = ratio(float64(aff1.SubtreesPruned), float64(aff1.SubtreesPruned+aff1.LeavesEvaluated))

	t.lanes = searchLanes(corpus[:512])
	rng := rand.New(rand.NewSource(t.cfg.seed))
	for _, req := range corpus[:512] {
		if p := req.Platform.P(); p <= 8 {
			t.scenarios = append(t.scenarios, eval.Scenario{
				Platform: req.Platform, Send: dls.Order(rng.Perm(p)), Return: dls.Order(rng.Perm(p)), Model: req.Model,
			})
		}
	}
	return nil
}
