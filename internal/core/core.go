// Package core implements the scheduling theory of RR-5738: fixed
// communication scenarios (Section 2.3), the optimal one-port FIFO
// schedule on a star (Theorem 1 and Proposition 1), the optimal one-port
// LIFO schedule, the closed-form optimal FIFO throughput on a bus
// (Theorem 2) with its constructive two-port→one-port transformation, the
// INC_C / INC_W heuristics of Section 5, and exhaustive searches used as
// optimality oracles on small platforms.
//
// All scenario evaluation is delegated to the internal/eval pipeline: a
// tiered evaluator that uses closed-form load recurrences and a direct
// tight-system solver where their optimality certificates hold, and the
// simplex (float64 or exact rational) otherwise. Entry points accept
// either an Arith (the historical float64/exact switch) or, in their
// *Eval variants, an explicit eval.Mode selecting the backend.
package core

import (
	"errors"
	"fmt"

	"repro/internal/eval"
	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Arith selects the arithmetic used by the scenario evaluator.
type Arith int

// Arithmetic modes.
const (
	// Float64 evaluates scenarios with the tiered float64 pipeline
	// (closed form / direct tight system / float64 simplex).
	Float64 Arith = iota
	// Exact evaluates them with the exact rational simplex.
	Exact
)

// String names the arithmetic mode.
func (a Arith) String() string {
	switch a {
	case Float64:
		return "float64"
	case Exact:
		return "exact"
	}
	return fmt.Sprintf("Arith(%d)", int(a))
}

// evalMode maps the historical Arith switch onto an eval.Mode: Float64
// defers to the tiered Auto pipeline, Exact forces the rational simplex.
func evalMode(arith Arith) (eval.Mode, error) {
	switch arith {
	case Float64:
		return eval.Auto, nil
	case Exact:
		return eval.ExactRational, nil
	default:
		return 0, fmt.Errorf("core: unknown arithmetic %v", arith)
	}
}

// ErrNoCommonZ is returned by OptimalFIFO when the platform has no common
// return/forward ratio z = d_i/c_i, in which case Theorem 1 does not apply.
// Its text names the dls strategies that still solve such a platform.
var ErrNoCommonZ = errors.New("core: platform has no common ratio z = d/c; Theorem 1 does not apply (use the fifo-exhaustive or scenario strategy)")

// ScenarioLP builds the linear program of Section 2.3 for a fixed
// scenario. It delegates to the eval pipeline, the single place that
// constructs these programs; callers needing the raw LP (exact identity
// tests, diagnostics) go through here.
func ScenarioLP(p *platform.Platform, send, ret platform.Order, model schedule.Model) (*lp.Problem, error) {
	return eval.ScenarioLP(eval.Scenario{Platform: p, Send: send, Return: ret, Model: model})
}

// SolveScenario computes the optimal loads for a fixed scenario and returns
// the resulting schedule with horizon T = 1. Workers that receive zero load
// in the optimum are pruned from the schedule's orders, implementing the
// paper's resource selection (Proposition 1). The schedule is verified
// against the feasibility checker before being returned.
func SolveScenario(p *platform.Platform, send, ret platform.Order, model schedule.Model, arith Arith) (*schedule.Schedule, error) {
	mode, err := evalMode(arith)
	if err != nil {
		return nil, err
	}
	return SolveScenarioEval(p, send, ret, model, mode)
}

// SolveScenarioEval is SolveScenario with an explicit evaluation backend.
func SolveScenarioEval(p *platform.Platform, send, ret platform.Order, model schedule.Model, mode eval.Mode) (*schedule.Schedule, error) {
	return eval.Evaluate(eval.Scenario{Platform: p, Send: send, Return: ret, Model: model}, mode)
}

// ExactThroughput solves the scenario LP in rational arithmetic and returns
// the exact optimal throughput as a string "num/den" together with its
// float64 value. It is used by tests that verify closed forms as exact
// identities.
func ExactThroughput(p *platform.Platform, send, ret platform.Order, model schedule.Model) (float64, string, error) {
	return eval.ExactObjective(eval.Scenario{Platform: p, Send: send, Return: ret, Model: model})
}
