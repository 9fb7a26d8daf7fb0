package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns the generator's HTTP client: at most `connections`
// keep-alive connections to the one server, no compression, and no
// retries beyond what net/http does for a dead idle connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		},
	}
}

// send posts body and reads the whole response into buf.
func send(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// warm sends the warm-up pass over both connections and fails on any
// non-2xx answer.
func warm(client *http.Client, base string, pass []post) error {
	var wg sync.WaitGroup
	errs := make([]error, connections)
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; i < len(pass); i += connections {
				code, err := send(client, base+pass[i].path, pass[i].body, &buf)
				if err == nil && code/100 != 2 {
					err = fmt.Errorf("warm-up %s answered %d: %s", pass[i].path, code, strings.TrimSpace(buf.String()))
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadResult is what the generator saw during a timed phase.
type loadResult struct {
	attempted, failed int       // requests, counting each batch slot
	succeeded         int       // requests answered 2xx
	samples           []sample  // one per answered unit
	lateMS            []float64 // open loop: dispatch lateness per arrival
	elapsed           time.Duration
}

// sample is one answered unit: a request (open loop, search) or a batch
// call of n requests (closed loop).
type sample struct {
	at    time.Duration // completion, since the phase started
	latMS float64
	n     int
}

// record accounts for one answered or failed unit of n requests that
// completed at offset at.
func (r *loadResult) record(n, code int, err error, lat, at time.Duration) {
	r.attempted += n
	if err != nil || code/100 != 2 {
		r.failed += n
		return
	}
	r.succeeded += n
	r.samples = append(r.samples, sample{at: at, latMS: float64(lat) / float64(time.Millisecond), n: n})
}

// merge folds per-worker results together.
func merge(parts []loadResult) loadResult {
	var out loadResult
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		out.succeeded += p.succeeded
		out.samples = append(out.samples, p.samples...)
		out.lateMS = append(out.lateMS, p.lateMS...)
	}
	return out
}

// openLoop replays a Poisson arrival schedule. A single dispatcher sleeps
// to each due time and hands the arrival to whichever of the connection
// workers is free; latency runs from the due time, so a stall delays the
// clock of every arrival queued behind it. Lateness is measured when the
// dispatcher wakes, before any wait for a busy connection.
func openLoop(client *http.Client, base string, in *servingInputs, arr arrivals, log *bodyLog) loadResult {
	type job struct {
		unit int
		due  time.Time
	}
	jobs := make(chan job)
	parts := make([]loadResult, connections+1)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(r *loadResult) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				code, err := send(client, base+in.path, in.bodies[j.unit], &buf)
				now := time.Now()
				r.record(len(in.members[j.unit]), code, err, now.Sub(j.due), now.Sub(start))
				if err == nil && code/100 == 2 {
					log.add(j.unit, buf.Bytes())
				}
			}
		}(&parts[w])
	}
	late := &parts[connections]
	ready := start // when the dispatcher last became free
	for i, d := range arr.due {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		// An arrival that fell due while the dispatcher was blocked on busy
		// connections is late because of them, not because of the dispatcher.
		from := due
		if ready.After(due) {
			from = ready
		}
		late.lateMS = append(late.lateMS, float64(time.Since(from))/float64(time.Millisecond))
		jobs <- job{unit: arr.pick[i], due: due}
		ready = time.Now()
	}
	close(jobs)
	wg.Wait()
	out := merge(parts)
	out.elapsed = time.Since(start)
	return out
}

// closedLoop keeps one call in flight per connection for d, walking the
// units in order (wrapping around) from unit first.
func closedLoop(client *http.Client, base string, in *servingInputs, first int, d time.Duration, log *bodyLog) loadResult {
	var next atomic.Int64
	parts := make([]loadResult, connections)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(r *loadResult) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(stop) {
				unit := (first + int(next.Add(1)-1)) % len(in.bodies)
				t0 := time.Now()
				code, err := send(client, base+in.path, in.bodies[unit], &buf)
				now := time.Now()
				r.record(len(in.members[unit]), code, err, now.Sub(t0), now.Sub(start))
				if err == nil && code/100 == 2 {
					log.add(unit, buf.Bytes())
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	out := merge(parts)
	out.elapsed = time.Since(start)
	return out
}

// scrape reads a Prometheus text page into a map keyed by the series
// name with its labels (e.g. `dlsd_stage_latency_seconds_sum{stage="solve"}`).
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after-before for one series (0 when absent).
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}
