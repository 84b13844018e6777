package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span (-1 for the root); every span of one
// repetition carries that repetition's Trace id (0 is set-up and probes).
type span struct {
	Name   string
	Parent int
	Trace  int
	Start  time.Duration // since the recorder started
	End    time.Duration
	Attrs  map[string]any
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the traced run; they are written out
// once, when the run ends. A nil *recorder records nothing, so the untraced
// run pays only a nil check per call.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, trace int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Trace: trace, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0)
}

// attr attaches a key/value attribute to span id.
func (r *recorder) attr(id int, key string, v any) {
	if r == nil || id < 0 {
		return
	}
	if r.spans[id].Attrs == nil {
		r.spans[id].Attrs = map[string]any{}
	}
	r.spans[id].Attrs[key] = v
}

// children returns, per span, the ids of its direct children.
func (r *recorder) children() [][]int {
	kids := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func (r *recorder) selfTimes() []time.Duration {
	kids := r.children()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			c := r.spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := time.Duration(0)
		cur := iv{-1, -1}
		for _, v := range ivs {
			if v.a > cur.b {
				covered += cur.b - cur.a
				cur = v
			} else if v.b > cur.b {
				cur.b = v.b
			}
		}
		covered += cur.b - cur.a
		self[i] = s.dur() - covered
	}
	return self
}

// sum totals the durations of the spans named name in trace tid.
func (r *recorder) sum(name string, tid int) (total time.Duration, n int) {
	for _, s := range r.spans {
		if s.Name == name && s.Trace == tid {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// sumSelf totals the self times of the spans named name in trace tid.
func (r *recorder) sumSelf(name string, tid int) time.Duration {
	self := r.selfTimes()
	var total time.Duration
	for i, s := range r.spans {
		if s.Name == name && s.Trace == tid {
			total += self[i]
		}
	}
	return total
}

// childSums returns, for every span named parent, the summed durations of
// its direct children named child.
func (r *recorder) childSums(parent, child string) []time.Duration {
	kids := r.children()
	var out []time.Duration
	for i, s := range r.spans {
		if s.Name != parent {
			continue
		}
		var t time.Duration
		for _, k := range kids[i] {
			if r.spans[k].Name == child {
				t += r.spans[k].dur()
			}
		}
		out = append(out, t)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (one lane per
// trace id), with each span's id, parent and self time in its args.
func (r *recorder) writeChrome(path string) error {
	self := r.selfTimes()
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"id": i, "parent": s.Parent, "trace": s.Trace, "self_us": float64(self[i]) / 1e3}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events[i] = chromeEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: s.Trace, Args: args}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
