package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/dls"
	"repro/internal/server"
)

func TestPoissonArrivalsSchedule(t *testing.T) {
	const horizon = 100 * time.Second
	a := poissonArrivals(rand.New(rand.NewSource(1)), hotRate, horizon, 160)
	b := poissonArrivals(rand.New(rand.NewSource(1)), hotRate, horizon, 160)
	if len(a.due) != len(b.due) || len(a.due) != len(a.pick) {
		t.Fatalf("same seed gave %d and %d arrivals (%d picks)", len(a.due), len(b.due), len(a.pick))
	}
	for i := range a.due {
		if a.due[i] != b.due[i] || a.pick[i] != b.pick[i] {
			t.Fatalf("same seed diverges at arrival %d", i)
		}
		if i > 0 && a.due[i] < a.due[i-1] {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a.due[i] >= horizon || a.pick[i] < 0 || a.pick[i] >= 160 {
			t.Fatalf("arrival %d out of range: due %v pick %d", i, a.due[i], a.pick[i])
		}
	}
	// 40000 expected arrivals: a Poisson count stays within 3% (6 sigma).
	if got, want := float64(len(a.due)), hotRate*horizon.Seconds(); math.Abs(got-want) > 0.03*want {
		t.Fatalf("%v arrivals in %v, want about %v", got, horizon, want)
	}
	c := poissonArrivals(rand.New(rand.NewSource(2)), hotRate, horizon, 160)
	if len(c.due) == len(a.due) && c.due[0] == a.due[0] {
		t.Fatal("different seeds gave the same schedule")
	}
}

// TestOpenLoopTimesFromDue drives a server slower than the arrival rate:
// latency must include the wait for a free connection (it runs from the
// due time), and the dispatcher's lateness must not.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 40 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	defer ts.Close()
	in := &servingInputs{path: "/", bodies: [][]byte{[]byte("{}")}, members: [][]int{{0}}}
	arr := arrivals{}
	for i := 0; i < 8; i++ { // eight arrivals 1 ms apart, two connections
		arr.due = append(arr.due, time.Duration(i)*time.Millisecond)
		arr.pick = append(arr.pick, 0)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	lr := openLoop(client, ts.URL, in, arr, newBodyLog(1))
	if lr.succeeded != 8 || lr.failed != 0 {
		t.Fatalf("succeeded %d failed %d, want 8 and 0", lr.succeeded, lr.failed)
	}
	maxLat := 0.0
	for _, s := range lr.samples {
		maxLat = math.Max(maxLat, s.latMS)
	}
	// The last pair queues behind three rounds of two: >= 4 service times.
	if want := 4 * float64(service/time.Millisecond); maxLat < want*0.95 {
		t.Fatalf("max latency %.1f ms, want >= %.1f ms: queueing behind busy connections was not counted", maxLat, want)
	}
	for i, l := range lr.lateMS {
		if l > float64(service/time.Millisecond)/2 {
			t.Fatalf("arrival %d dispatch lateness %.1f ms counts the wait for a busy connection", i, l)
		}
	}
}

func TestPercentileBeyondRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples beyond
		{999, 0.99, 0, false},   // nine beyond
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{5000, 0.50, 2500, true},
		{0, 0.50, 0, false},
	} {
		got, err := percentile(ramp(tc.n), tc.q)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, ok=%v", tc.n, tc.q, got, err, tc.want, tc.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, name string, start, end int64) span {
		return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	spans := []span{
		sp(1, 0, "root", 0, 100),
		sp(2, 1, "a", 10, 30),
		sp(3, 1, "a", 20, 50),  // overlaps its sibling: [10,50] counts once
		sp(4, 1, "b", 90, 120), // runs past its parent: only [90,100] counts
		sp(5, 2, "leaf", 12, 18),
		sp(6, 0, "other", 0, 7),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":  100 - 40 - 10,
		"a":     (20 - 6) + 30,
		"b":     30,
		"leaf":  6,
		"other": 7,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}

	r := newRecorder()
	root := r.begin("request", 0, 7)
	child := r.time("decode", root, 7, func() { time.Sleep(2 * time.Millisecond) })
	r.end(root)
	total := r.spans[root-1].dur()
	self := selfTimes(r.spans)
	if self["request"] != total-child || self["decode"] != child {
		t.Errorf("recorded self times %v, want request %v and decode %v", self, total-child, child)
	}
	if r.spans[1].Parent != root || r.spans[1].Req != 7 {
		t.Errorf("child span %+v lost its parent or request id", r.spans[1])
	}
}

// testRefs computes both references for a small chain pool.
func testRefs(t *testing.T) (*servingInputs, *references) {
	t.Helper()
	in, err := newServingInputs(ChainHot, 1)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := newReferences(in.pool)
	if err != nil {
		t.Fatal(err)
	}
	return in, refs
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckerRejectsPerturbedAnswer(t *testing.T) {
	in, refs := testRefs(t)
	const unit = 0
	good := wireOf(refs.solve[unit])
	if err := checkBody("/v1/solve", encode(t, good), in.members[unit], refs); err != nil {
		t.Fatalf("reference answer rejected: %v", err)
	}
	cached := *good
	cached.Cached = true
	if err := checkBody("/v1/solve", encode(t, &cached), in.members[unit], refs); err != nil {
		t.Fatalf("cache flag alone rejected the answer: %v", err)
	}
	for name, perturb := range map[string]func(r *server.SolveResponse){
		"throughput ulp": func(r *server.SolveResponse) { r.Throughput = math.Nextafter(r.Throughput, math.Inf(1)) },
		"makespan ulp":   func(r *server.SolveResponse) { r.Makespan = math.Nextafter(r.Makespan, 0) },
		"alpha ulp": func(r *server.SolveResponse) {
			r.Alpha = append([]float64(nil), r.Alpha...)
			r.Alpha[0] = math.Nextafter(r.Alpha[0], 0)
		},
		"send order": func(r *server.SolveResponse) { r.Send = append(r.Send[1:len(r.Send):len(r.Send)], r.Send[0]) },
		"strategy":   func(r *server.SolveResponse) { r.Strategy = dls.StrategyIncW },
	} {
		bad := *good
		perturb(&bad)
		if err := checkBody("/v1/solve", encode(t, &bad), in.members[unit], refs); err == nil {
			t.Errorf("%s: perturbed answer accepted", name)
		}
	}

	// A batch body fails as a whole when one slot is off.
	members := []int{0, 1, 2}
	batch := server.BatchResponse{}
	for _, i := range members {
		batch.Results = append(batch.Results, wireOf(refs.batch[i]))
	}
	if err := checkBody("/v1/solve/batch", encode(t, batch), members, refs); err != nil {
		t.Fatalf("reference batch rejected: %v", err)
	}
	slot := *batch.Results[2]
	slot.Throughput = math.Nextafter(slot.Throughput, 0)
	batch.Results[2] = &slot
	if err := checkBody("/v1/solve/batch", encode(t, batch), members, refs); err == nil {
		t.Error("batch with a perturbed slot accepted")
	}

	// The body log counts every request of a wrong unit.
	log := newBodyLog(len(in.bodies))
	bad := *good
	bad.Throughput *= 1.5
	log.add(unit, encode(t, good))
	log.add(unit, encode(t, &bad))
	log.add(unit, encode(t, &bad))
	if wrong, first := log.check(in, refs); wrong != 2 || first == nil {
		t.Errorf("body log found %d wrong (%v), want 2", wrong, first)
	}
}

func TestSearchCheckerRejectsPerturbedAnswer(t *testing.T) {
	corpus := searchCorpusOf(1, len(searchKinds))
	ref, err := dls.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range corpus {
		res, err := ref.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ref.Solve(context.Background(), heuristicOf(req))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSearch(ref, req, res, h.Throughput); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", req.Strategy, err)
		}
		if err := checkSearch(ref, req, res, res.Throughput*(1+1e-6)); err == nil {
			t.Errorf("%s: answer below its heuristic accepted", req.Strategy)
		}
		bad := *res
		switch {
		case res.Schedule != nil:
			s := res.Schedule.Clone()
			for i := range s.Alpha {
				s.Alpha[i] *= 1.01 // overloads every port
			}
			bad.Schedule = s
			bad.Throughput = s.Throughput()
		case res.Affine != nil:
			a := *res.Affine
			bad.Affine = &a
			bad.Throughput *= 1.01
		}
		if err := checkSearch(ref, req, &bad, h.Throughput); err == nil {
			t.Errorf("%s: infeasible answer accepted", req.Strategy)
		}
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, w := range []string{ChainHot, ChainCold} {
		a, err := newServingInputs(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newServingInputs(w, 3)
		c, _ := newServingInputs(w, 4)
		if !bytes.Equal(a.bodies[0], b.bodies[0]) || bytes.Equal(a.bodies[0], c.bodies[0]) {
			t.Errorf("%s: inputs do not follow the seed", w)
		}
	}
	cold, _ := newServingInputs(ChainCold, 1)
	if len(cold.pool) < 4*coldCacheCap {
		t.Errorf("chain-cold pool of %d problems is under 4x the %d-entry cache", len(cold.pool), coldCacheCap)
	}
	for _, m := range cold.members {
		if len(m) != coldCallSize {
			t.Fatalf("chain-cold call of %d requests, want %d", len(m), coldCallSize)
		}
	}
	a, b := searchCorpusOf(5, 40), searchCorpusOf(5, 40)
	for i := range a {
		if a[i].Platform.Fingerprint() != b[i].Platform.Fingerprint() || a[i].Strategy != b[i].Strategy {
			t.Fatalf("search corpus entry %d does not follow the seed", i)
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "search", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || cfg.workload != Search || cfg.seed != 9 || cfg.seconds != 3 || !cfg.trace {
		t.Fatalf("parseFlags = %+v, %v", cfg, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "chain-hot"}, // no dlsd binary
		{"--workload", "search", "--trace", "2"},
		{"--workload", "search", "--seconds", "0"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}

func TestSplitQuarters(t *testing.T) {
	const d = 4 * time.Second
	var lr loadResult
	// Quarter k answers 1000*(k+1) units of two requests each, every one
	// with latency k+1 ms except the slowest 1% at 100*(k+1) ms.
	for k := 0; k < quarters; k++ {
		n := 1000 * (k + 1)
		for i := 0; i < n; i++ {
			lat := float64(k + 1)
			if i >= n-n/100 {
				lat = float64(100 * (k + 1))
			}
			at := time.Duration(k)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			lr.record(2, 200, nil, time.Duration(lat*float64(time.Millisecond)), at)
		}
	}
	lr.record(1, 500, nil, time.Millisecond, time.Second) // a failure joins no quarter
	lr.elapsed = d
	cpu := []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second, 8 * time.Second}
	f, err := splitQuarters(lr, cpu, d)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < quarters; k++ {
		reqs := float64(2 * 1000 * (k + 1))
		if f.throughput[k] != reqs || f.p50[k] != float64(k+1) || f.cpuUS[k] != 1000 {
			t.Errorf("quarter %d: throughput %v p50 %v cpu %v, want %v, %v, 1000", k, f.throughput[k], f.p50[k], f.cpuUS[k], reqs, k+1)
		}
	}
	if lr.attempted != 20001 || lr.failed != 1 {
		t.Errorf("attempted %d failed %d, want 20001 and 1", lr.attempted, lr.failed)
	}
	// 10000 samples, the slowest 100 beyond the p99 rank.
	if got, want := tail(lr), "latency p99 4 ms over 10000 samples"; got != want {
		t.Errorf("tail = %q, want %q", got, want)
	}

	lr.samples = lr.samples[:999] // only the first quarter answered
	if _, err := splitQuarters(lr, cpu, d); err == nil {
		t.Error("a run with silent quarters was accepted")
	}
	if got := tail(lr); !strings.Contains(got, "not reported") {
		t.Errorf("tail of 999 samples = %q, want it not reported", got)
	}
}

func TestSearchWarmupCoversEveryStratum(t *testing.T) {
	if searchWarmupSize%len(searchKinds) != 0 || searchWarmupSize < len(searchKinds) {
		t.Fatalf("warm-up of %d problems does not cover the %d strata evenly", searchWarmupSize, len(searchKinds))
	}
	a, b := warmupProblems(), warmupProblems()
	for i := range a {
		if a[i].Platform.Fingerprint() != b[i].Platform.Fingerprint() {
			t.Fatal("the warm-up pass changes between runs")
		}
	}
}

// TestMetricsMatchContract pins the metric names and units the command
// prints to the ones BENCHMARK.json declares.
func TestMetricsMatchContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var contract struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	var lr loadResult
	for i := 0; i < 100; i++ {
		lr.record(1, 200, nil, time.Millisecond, time.Duration(i)*10*time.Millisecond)
	}
	lr.elapsed = time.Second
	res, err := endToEnd(lr, []time.Duration{1, 1, 1, 1}, time.Second, 10, []float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []decl, got map[string]string) {
		if len(want) != len(got) {
			t.Errorf("%s: contract declares %d metrics, the command prints %d", kind, len(want), len(got))
		}
		for _, d := range want {
			if unit, ok := got[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s metric %s: printed unit %q (present %v), contract says %q", kind, d.Name, unit, ok, d.Unit)
			}
		}
	}
	printed := make(map[string]string)
	for name, m := range res.Metrics {
		printed[name] = m.Unit
	}
	check("end-to-end", contract.EndToEnd, printed)
	layers := make(map[string]string)
	for _, m := range perLayer {
		layers[m.name] = m.unit
	}
	check("per-layer", contract.PerLayer, layers)
}

// TestSearchResultsWrapTheCorpus checks answers of a run that went round
// its corpus more than once.
func TestSearchResultsWrapTheCorpus(t *testing.T) {
	corpus := searchCorpusOf(2, 3)
	solver, err := dls.NewSolver()
	if err != nil {
		t.Fatal(err)
	}
	var results []*dls.Result
	for i := 0; i < 7; i++ {
		res, err := solver.Solve(context.Background(), corpus[i%len(corpus)])
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if wrong, err := checkSearchResults(corpus, results); err != nil || wrong != 0 {
		t.Fatalf("checkSearchResults = %d, %v; want 0 wrong", wrong, err)
	}
	results[4], results[5] = results[5], results[4] // answers swapped between problems
	if wrong, _ := checkSearchResults(corpus, results); wrong == 0 {
		t.Error("answers to the wrong problems accepted")
	}
}
