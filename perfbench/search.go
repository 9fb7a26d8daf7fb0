package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/dls"
)

// processCPU returns the benchmark process's user+system CPU so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// warmupProblems is the search warm-up pass.
func warmupProblems() []dls.Request {
	return searchCorpusOf(searchWarmupSeed, searchWarmupSize)
}

// searchSetUp times NewSolver to the answered warm-up pass setupRepeats
// times and returns the last solver. The search workload drives the
// defaults: search parallelism one worker per CPU, and no cache.
func searchSetUp() (*dls.Solver, []float64, error) {
	var (
		solver *dls.Solver
		setups []float64
		err    error
	)
	warmup := warmupProblems()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if solver, err = dls.NewSolver(); err != nil {
			return nil, nil, err
		}
		for _, req := range warmup {
			if _, err := solver.Solve(context.Background(), req); err != nil {
				return nil, nil, fmt.Errorf("warm-up %s: %w", req.Strategy, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return solver, setups, nil
}

// searchPhase solves corpus problems in order, one at a time, until d has
// passed, and returns the results with the per-solve latencies. Result i
// answers corpus[i%len(corpus)]: a host fast enough to exhaust the corpus
// starts over rather than ending the phase early.
func searchPhase(solver *dls.Solver, corpus []dls.Request, d time.Duration) ([]*dls.Result, loadResult) {
	var (
		lr      loadResult
		results []*dls.Result
	)
	start := time.Now()
	stop := start.Add(d)
	for i := 0; time.Now().Before(stop); i++ {
		t0 := time.Now()
		res, err := solver.Solve(context.Background(), corpus[i%len(corpus)])
		now := time.Now()
		lr.record(1, 200, err, now.Sub(t0), now.Sub(start))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: search problem %d (%s): %v\n", i, corpus[i%len(corpus)].Strategy, err)
		}
		results = append(results, res)
	}
	lr.elapsed = time.Since(start)
	return results, lr
}

// checkSearchResults verifies every answer (result i answers
// corpus[i%len(corpus)]) against its heuristic baseline and returns how
// many were wrong.
func checkSearchResults(corpus []dls.Request, results []*dls.Result) (int, error) {
	ref, err := dls.NewSolver()
	if err != nil {
		return 0, err
	}
	n := min(len(results), len(corpus))
	heur := make([]dls.Request, n)
	for i := range heur {
		heur[i] = heuristicOf(corpus[i])
	}
	base, err := solveAll(heur)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for i, res := range results {
		if res == nil {
			continue // failed, already counted
		}
		req := corpus[i%len(corpus)]
		if err := checkSearch(ref, req, res, base[i%len(corpus)].Throughput); err != nil {
			wrong++
			fmt.Fprintf(os.Stderr, "perfbench: wrong answer to search problem %d (%s): %v\n", i, req.Strategy, err)
		}
	}
	return wrong, nil
}

func searchEndToEnd(cfg config) (*result, error) {
	corpus := searchCorpusOf(cfg.seed, searchCorpus)
	solver, setups, err := searchSetUp()
	if err != nil {
		return nil, err
	}
	// The peak RSS is the timed phase's: set-up garbage is collected and
	// the kernel's high-water mark restarts from here.
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	marks := startCPUMarks(processCPU, cfg.duration())
	results, lr := searchPhase(solver, corpus, cfg.duration())
	cpu, err := marks.finish()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	wrong, err := checkSearchResults(corpus, results)
	if err != nil {
		return nil, err
	}
	return endToEnd(lr, cpu, cfg.duration(), rss, setups, wrong)
}
