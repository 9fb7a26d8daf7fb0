// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks every answer against an in-process
// reference, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, latency,
// CPU and memory per request, success rate, set-up time), measured with
// tracing off. With -trace 1 a separate traced run prints the per-layer
// metrics and writes its spans as JSON under -out.
//
// The serving workloads drive a dlsd binary built from the same source
// (-dlsd) over loopback; the search workload drives dls.Solver in-process.
// perfbench/run.sh builds both and runs this command; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dlsd     string // path of the dlsd binary under test
	out      string // directory for the traced run's spans
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Every exit path stops the servers: a normal return and a panic in
	// this goroutine through the deferred call, a signal through the
	// handler below, and the benchmark dying any other way through the
	// servers' parent-death signal.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: stopped by %v\n", s)
		os.Exit(2)
	}()

	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var res *result
	switch {
	case cfg.trace:
		res, err = traced(cfg)
	case cfg.workload == Search:
		res, err = searchEndToEnd(cfg)
	default:
		res, err = serveEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong answers\n", cfg.workload)
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: chain-hot | chain-cold | search")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&cfg.dlsd, "dlsd", "", "dlsd binary built from the code under test")
	fs.StringVar(&cfg.out, "out", ".", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("-seconds must be >= 1, got %d", cfg.seconds)
	case cfg.workload != Search && cfg.dlsd == "":
		return cfg, fmt.Errorf("-dlsd is required for workload %q", cfg.workload)
	}
	for _, w := range workloadNames {
		if cfg.workload == w {
			return cfg, nil
		}
	}
	return cfg, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

func (cfg config) duration() time.Duration { return time.Duration(cfg.seconds) * time.Second }

// arrivalSeed derives the chain-hot schedule's seed from the workload seed,
// so the pool and the schedule are independent draws.
func arrivalSeed(seed int64) int64 { return seed ^ 0x5eed_a11 }

// servedRun is one timed phase against a running dlsd.
type servedRun struct {
	load    loadResult
	cpu     []time.Duration // server CPU per quarter of the phase
	rssMB   float64
	wrong   int
	wrongAt error
}

// setUp starts dlsd setupRepeats times, each time timing exec to the
// answered warm-up pass, and returns the last server (still running) with
// the set-up times.
func setUp(cfg config, in *servingInputs) (*dlsd, []float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		client := newClient()
		t0 := time.Now()
		d, err := startDlsd(cfg.dlsd, false)
		if err != nil {
			return nil, nil, err
		}
		if err := warm(client, d.base, in.warmup); err != nil {
			d.kill()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		client.CloseIdleConnections()
		if i == setupRepeats-1 {
			return d, setups, nil
		}
		d.kill()
	}
	panic("unreachable")
}

// driveServer runs the workload's timed phase for d against a running
// server and measures the server process around it.
func driveServer(cfg config, in *servingInputs, base string, pid int, d time.Duration, log *bodyLog) (servedRun, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var r servedRun
	marks := startCPUMarks(func() (time.Duration, error) { return procCPU(pid) }, d)
	switch cfg.workload {
	case ChainHot:
		arr := poissonArrivals(rand.New(rand.NewSource(arrivalSeed(cfg.seed))), hotRate, d, len(in.bodies))
		r.load = openLoop(client, base, in, arr, log)
	default:
		r.load = closedLoop(client, base, in, 0, d, log)
	}
	var err error
	if r.cpu, err = marks.finish(); err != nil {
		return r, err
	}
	r.rssMB, err = peakRSS(pid)
	return r, err
}

func serveEndToEnd(cfg config) (*result, error) {
	in, err := newServingInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	refs, err := newReferences(in.pool)
	if err != nil {
		return nil, err
	}
	if n := refs.mismatches(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: finding: the batch prepass and Solve disagree on %d of %d pool problems\n", n, len(in.pool))
	}
	d, setups, err := setUp(cfg, in)
	if err != nil {
		return nil, err
	}
	log := newBodyLog(len(in.bodies))
	sr, err := driveServer(cfg, in, d.base, d.pid(), cfg.duration(), log)
	d.stop()
	if err != nil {
		return nil, err
	}
	sr.wrong, sr.wrongAt = log.check(in, refs)
	res, err := endToEnd(sr.load, sr.cpu, cfg.duration(), sr.rssMB, setups, sr.wrong)
	if sr.wrongAt != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", sr.wrongAt)
	}
	return res, err
}

// endToEnd assembles the end-to-end metrics of a timed phase of planned
// length d: medians of the per-quarter figures. The p99 latency goes to
// standard error only: on two vCPUs its run-to-run spread is wider than
// any bound a regression gate can use (see README.md).
func endToEnd(lr loadResult, cpu []time.Duration, d time.Duration, rssMB float64, setups []float64, wrong int) (*result, error) {
	if lr.attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	f, err := splitQuarters(lr, cpu, d)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: per quarter: throughput_rps %.4g, latency_p50_ms %.4g, cpu_us_per_req %.4g; %s\n",
		f.throughput, f.p50, f.cpuUS, tail(lr))
	failed := lr.failed + wrong
	res := &result{Correct: wrong == 0, Attempted: lr.attempted, Failed: failed}
	res.set("throughput_rps", median(f.throughput), "1/s")
	res.set("latency_p50_ms", median(f.p50), "ms")
	res.set("cpu_us_per_req", median(f.cpuUS), "us")
	res.set("rss_mb", rssMB, "MiB")
	res.set("success_rate", float64(lr.attempted-failed)/float64(lr.attempted), "ratio")
	res.set("setup_s", median(setups), "s")
	return res, nil
}
