package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the traced run made into a layer. Spans of one
// replayed request share Req; Parent is the enclosing span's ID (0 for a
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. The
// replay records from one goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// time runs f inside a span and returns f's duration.
func (r *recorder) time(name string, parent, req int, f func()) time.Duration {
	id := r.begin(name, parent, req)
	f()
	r.end(id)
	return r.spans[id-1].dur()
}

// byName returns the durations of every span called name.
func (r *recorder) byName(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by its children (overlapping children count once, and the
// parts of children outside the parent not at all).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		total += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return time.Duration(total)
}

// spanFile is the traced run's output.
type spanFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Labels   map[string]string `json:"labels"`
	SelfNS   map[string]int64  `json:"self_ns"`
	Spans    []span            `json:"spans"`
}

// write stores the spans, with per-name self times, as JSON at path.
func (r *recorder) write(path, workload string, seed int64, labels map[string]string) error {
	f := spanFile{Workload: workload, Seed: seed, Labels: labels, SelfNS: make(map[string]int64), Spans: r.spans}
	for name, d := range selfTimes(r.spans) {
		f.SelfNS[name] = int64(d)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
