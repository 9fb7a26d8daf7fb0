package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/dls"
	"repro/internal/server"
)

// Workload names. Each exercises a different set of layers; see README.md.
const (
	ChainHot  = "chain-hot"
	ChainCold = "chain-cold"
	Search    = "search"
)

var workloadNames = []string{ChainHot, ChainCold, Search}

// Shape constants of the workloads. They are part of the benchmark's
// definition: changing one changes what every recorded number means.
const (
	chainP          = 6   // workers per chain platform (the dlsload chain mix)
	hotPlatforms    = 32  // chain-hot pool: 32 platforms × 5 strategies = 160 problems
	hotRate         = 400 // chain-hot open-loop arrival rate, requests per second
	coldCacheCap    = 4096
	coldPlatforms   = 4096 // chain-cold pool: 4096 × 5 = 20480 problems, 5× the cache
	coldCallSize    = 64   // requests per /v1/solve/batch call (dlsd's window size)
	connections     = 2    // keep-alive connections of the serving generator
	warmupColdCalls = 32   // chain-cold warm-up pass
	searchCorpus    = 8192 // distinct search problems per seed, more than a run solves
	// The search warm-up pass, three problems per stratum, is drawn from
	// its own seed, the same for every run, so that set-up time measures
	// the program and not the seed's draw.
	searchWarmupSeed = -1
	searchWarmupSize = 33
)

// chainRequests returns the dlsload chain mix on one platform: the three
// closed-form FIFO orders, the optimal LIFO and an explicit FIFO order.
func chainRequests(plat *dls.Platform) []dls.Request {
	return []dls.Request{
		{Platform: plat, Strategy: dls.StrategyIncC, Load: 1000},
		{Platform: plat, Strategy: dls.StrategyIncW},
		{Platform: plat, Strategy: dls.StrategyDecC},
		{Platform: plat, Strategy: dls.StrategyLIFO},
		{Platform: plat, Strategy: dls.StrategyFIFOOrder, Send: plat.ByW()},
	}
}

// chainPool draws n heterogeneous p=6 platforms and expands each into the
// chain mix, in order.
func chainPool(rng *rand.Rand, n int) []dls.Request {
	reqs := make([]dls.Request, 0, 5*n)
	for i := 0; i < n; i++ {
		plat := dls.RandomSpeeds(rng, chainP, dls.Heterogeneous).Platform(dls.DefaultApp(100))
		reqs = append(reqs, chainRequests(plat)...)
	}
	return reqs
}

// arrivals is a seeded Poisson arrival schedule: due offsets from the start
// of the run and the pool entry each arrival requests.
type arrivals struct {
	due  []time.Duration
	pick []int
}

// poissonArrivals draws exponential inter-arrival gaps at rate per second
// until the horizon, each arrival picking a pool entry uniformly.
func poissonArrivals(rng *rand.Rand, rate float64, horizon time.Duration, poolSize int) arrivals {
	var a arrivals
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return a
		}
		a.due = append(a.due, d)
		a.pick = append(a.pick, rng.Intn(poolSize))
	}
}

// servingInputs are the generated inputs of a serving workload: the
// problem pool, and the wire bodies the generator sends.
type servingInputs struct {
	pool []dls.Request
	// bodies[i] is the POST body of unit i: one /v1/solve request per pool
	// entry for chain-hot, one /v1/solve/batch call of coldCallSize
	// consecutive pool entries for chain-cold.
	bodies [][]byte
	// members[i] lists the pool indices unit i carries.
	members [][]int
	path    string
	// warmup is the warm-up pass, sent before timing.
	warmup []post
}

// post is one HTTP request body and the path it goes to.
type post struct {
	path string
	body []byte
}

func newServingInputs(workload string, seed int64) (*servingInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &servingInputs{}
	switch workload {
	case ChainHot:
		in.pool = chainPool(rng, hotPlatforms)
		in.path = "/v1/solve"
		for i, req := range in.pool {
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
			in.members = append(in.members, []int{i})
		}
		// Pre-warm: the whole pool in one batch call fills the cache, then
		// every pool entry once on the single-request path.
		b, err := json.Marshal(server.BatchRequest{Requests: in.pool})
		if err != nil {
			return nil, err
		}
		in.warmup = append(in.warmup, post{"/v1/solve/batch", b})
		for _, body := range in.bodies {
			in.warmup = append(in.warmup, post{in.path, body})
		}
	case ChainCold:
		in.pool = chainPool(rng, coldPlatforms)
		in.path = "/v1/solve/batch"
		for lo := 0; lo < len(in.pool); lo += coldCallSize {
			idx := make([]int, 0, coldCallSize)
			for i := lo; i < lo+coldCallSize && i < len(in.pool); i++ {
				idx = append(idx, i)
			}
			b, err := json.Marshal(server.BatchRequest{Requests: in.pool[lo : lo+len(idx)]})
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, b)
			in.members = append(in.members, idx)
		}
		for _, body := range in.bodies[len(in.bodies)-warmupColdCalls:] {
			in.warmup = append(in.warmup, post{in.path, body})
		}
	default:
		return nil, fmt.Errorf("%q is not a serving workload", workload)
	}
	return in, nil
}

// searchKind is one stratum of the search corpus: a strategy, a model, a
// platform size and one of the paper's §5.3 platform families.
type searchKind struct {
	strategy string
	model    dls.Model
	p        int
	family   dls.Family
}

// searchKinds is the stratified cycle the corpus is drawn from. Every
// strategy stays under half of the wall time, and no stratum has a tail
// that lets one seed's draw decide a run: pair-exhaustive runs at p=5
// only (at p=6 single heterogeneous problems take up to 4 s, and
// homogeneous ones over a second on average), pair and affine searches
// skip the homogeneous family, whose ties defeat their bounds.
var searchKinds = []searchKind{
	{dls.StrategyFIFOExhaustive, dls.OnePort, 8, dls.HomCommHeteroComp},
	{dls.StrategyFIFOExhaustive, dls.OnePort, 8, dls.Heterogeneous},
	{dls.StrategyFIFOExhaustive, dls.TwoPort, 8, dls.Heterogeneous},
	{dls.StrategyLIFOExhaustive, dls.OnePort, 8, dls.Homogeneous},
	{dls.StrategyLIFOExhaustive, dls.OnePort, 8, dls.HomCommHeteroComp},
	{dls.StrategyLIFOExhaustive, dls.OnePort, 8, dls.Heterogeneous},
	{dls.StrategyPairExhaustive, dls.OnePort, 5, dls.HomCommHeteroComp},
	{dls.StrategyPairExhaustive, dls.OnePort, 5, dls.Heterogeneous},
	{dls.StrategyPairExhaustive, dls.OnePort, 5, dls.Heterogeneous},
	{dls.StrategyFIFOAffine, dls.OnePort, 16, dls.Heterogeneous},
	{dls.StrategyFIFOAffine, dls.OnePort, 16, dls.Heterogeneous},
}

// affineScale bounds the seeded fixed costs relative to the linear ones.
const affineScale = 0.5

// searchCorpusOf draws n distinct search problems, cycling the strata.
func searchCorpusOf(seed int64, n int) []dls.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]dls.Request, n)
	for i := range reqs {
		k := searchKinds[i%len(searchKinds)]
		plat := dls.RandomSpeeds(rng, k.p, k.family).Platform(dls.DefaultApp(100))
		req := dls.Request{Platform: plat, Strategy: k.strategy, Model: k.model}
		if k.strategy == dls.StrategyFIFOAffine {
			aff := dls.ZeroAffine(k.p)
			for w, wk := range plat.Workers {
				aff.In[w] = rng.Float64() * wk.C * affineScale
				aff.Out[w] = rng.Float64() * wk.D * affineScale
				aff.Comp[w] = rng.Float64() * wk.W * affineScale
			}
			req.Affine = &aff
		}
		reqs[i] = req
	}
	return reqs
}
