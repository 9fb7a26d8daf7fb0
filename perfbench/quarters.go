package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// quarters is how many equal parts of a timed phase the end-to-end
// figures are taken over: each figure is the median of its per-quarter
// values, so a burst of noise from outside the program moves one quarter
// and not the result.
const quarters = 4

// cpuMarks samples a CPU counter at the start of a timed phase and at each
// quarter boundary.
type cpuMarks struct {
	read  func() (time.Duration, error)
	marks [quarters + 1]time.Duration
	errs  [quarters + 1]error
	wg    sync.WaitGroup
}

// startCPUMarks takes the first mark now and the inner quarter marks of a
// phase of length d in the background.
func startCPUMarks(read func() (time.Duration, error), d time.Duration) *cpuMarks {
	m := &cpuMarks{read: read}
	start := time.Now()
	m.marks[0], m.errs[0] = read()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for k := 1; k < quarters; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * d / quarters)))
			m.marks[k], m.errs[k] = read()
		}
	}()
	return m
}

// finish takes the last mark once the phase is over and returns the CPU
// used in each quarter.
func (m *cpuMarks) finish() ([]time.Duration, error) {
	m.wg.Wait()
	m.marks[quarters], m.errs[quarters] = m.read()
	if err := errors.Join(m.errs[:]...); err != nil {
		return nil, fmt.Errorf("reading CPU time: %w", err)
	}
	out := make([]time.Duration, quarters)
	for k := range out {
		out[k] = m.marks[k+1] - m.marks[k]
	}
	return out, nil
}

// total sums per-quarter CPU.
func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// quarterFigures are the per-quarter values behind the timing metrics.
type quarterFigures struct {
	throughput, p50, cpuUS []float64
}

// splitQuarters assigns each answered unit to the quarter of the planned
// phase length d it completed in (the last quarter also holds whatever
// completed after d) and computes each quarter's figures.
func splitQuarters(lr loadResult, cpu []time.Duration, d time.Duration) (quarterFigures, error) {
	var f quarterFigures
	seg := d / quarters
	reqs := make([]int, quarters)
	lat := make([][]float64, quarters)
	for _, s := range lr.samples {
		k := min(int(s.at/seg), quarters-1)
		reqs[k] += s.n
		lat[k] = append(lat[k], s.latMS)
	}
	for k := 0; k < quarters; k++ {
		if reqs[k] == 0 {
			return f, fmt.Errorf("quarter %d of the run answered nothing", k+1)
		}
		length := seg
		if k == quarters-1 {
			length = max(lr.elapsed-time.Duration(quarters-1)*seg, seg)
		}
		sort.Float64s(lat[k])
		p50, err := percentile(lat[k], 0.50)
		if err != nil {
			return f, fmt.Errorf("quarter %d: %w", k+1, err)
		}
		f.throughput = append(f.throughput, float64(reqs[k])/length.Seconds())
		f.p50 = append(f.p50, p50)
		f.cpuUS = append(f.cpuUS, float64(cpu[k])/float64(time.Microsecond)/float64(reqs[k]))
	}
	return f, nil
}

// tail describes the whole phase's p99 latency with its sample count, or
// why the run cannot support one.
func tail(lr loadResult) string {
	all := make([]float64, len(lr.samples))
	for i, s := range lr.samples {
		all[i] = s.latMS
	}
	sort.Float64s(all)
	p99, err := percentile(all, 0.99)
	if err != nil {
		return "latency p99 not reported: " + err.Error()
	}
	return fmt.Sprintf("latency p99 %.4g ms over %d samples", p99, len(all))
}
