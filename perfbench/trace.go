package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side timing around a call into a layer of the
// program. Spans of one request share Req; Parent is 0 for a root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Trace  string        `json:"trace_id,omitempty"` // the daemon's X-Nvrel-Trace
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans)) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return int64(len(r.spans))
}

func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span measured elsewhere (the open-loop senders time
// their own requests).
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s.ID = int64(len(r.spans)) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it its
// children cover, grouped by span name.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], (s.dur() - covered(s, children[s.ID])).Seconds())
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([]span, len(kids))
	copy(iv, kids)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	curS, curE := iv[0].Start, iv[0].End
	flush := func() {
		s, e := max(curS, parent.Start), min(curE, parent.End)
		if e > s {
			total += e - s
		}
	}
	for _, k := range iv[1:] {
		if k.Start > curE {
			flush()
			curS, curE = k.Start, k.End
		} else if k.End > curE {
			curE = k.End
		}
	}
	flush()
	return total
}

// durations returns the durations (seconds) of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// writeSpans writes every span as JSON once the run is over.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
