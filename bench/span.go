package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID names a recorded span; noSpan is both "no parent" and what a
// disabled tracer hands out.
type spanID int32

const noSpan spanID = -1

// span is one call the harness made into a layer. The layer is the module
// name before the first dot of name ("core.RunCompiled" -> core).
type span struct {
	name       string
	parent     spanID
	lane       int32 // Chrome tid: spans of one lane nest, lanes run concurrently
	start, end time.Duration
	workload   string // set on root spans; children inherit through parent
	rep        int
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: every method is a no-op, so call sites do not branch.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root opens a top-level span tagged with the workload and repetition all
// its descendants belong to.
func (t *tracer) root(name, workload string, rep int) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: noSpan, start: now, end: -1, workload: workload, rep: rep})
	return spanID(len(t.spans) - 1)
}

// begin opens a child span on its parent's lane.
func (t *tracer) begin(parent spanID, name string) spanID { return t.beginLane(parent, name, -1) }

// beginLane opens a child span on an explicit lane, for callers that run
// concurrently with their siblings (lane < 0 inherits the parent's).
func (t *tracer) beginLane(parent spanID, name string, lane int) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if lane < 0 && parent != noSpan {
		lane = int(t.spans[parent].lane)
	}
	if lane < 0 {
		lane = 0
	}
	t.spans = append(t.spans, span{name: name, parent: parent, lane: int32(lane), start: now, end: -1})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[spanID][]iv)
	for _, s := range spans {
		if s.parent != noSpan && s.end >= s.start {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed: a failed call; contributes nothing
		}
		ivs := kids[spanID(i)]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, edge time.Duration
		edge = s.start
		for _, k := range ivs {
			a, b := k.a, k.b
			if a < edge {
				a = edge
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		out[i] = (s.end - s.start) - covered
	}
	return out
}

// selfByLayer sums self time per layer over every closed span.
func (t *tracer) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, d := range selfTimes(t.spans) {
		out[layerOf(t.spans[i].name)] += d
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev): ts and dur in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the recorded spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < s.start {
			continue
		}
		top := s
		for top.parent != noSpan {
			top = t.spans[top.parent]
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]any{
				"id": i, "parent": int(s.parent),
				"workload": top.workload, "rep": top.rep,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
