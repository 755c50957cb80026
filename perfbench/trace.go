package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// unit (a full pass or an epoch) share unit; parent is the index of the
// enclosing span, or -1.
type span struct {
	name       string
	unit       int
	parent     int
	start, end time.Duration
}

// tracer records spans in memory from the benchmark's own goroutine. A nil
// *tracer records nothing, so untraced units pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	unit  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginUnit opens the root span of a new unit.
func (t *tracer) beginUnit(name string) int {
	if t == nil {
		return -1
	}
	t.unit++
	return t.begin(name)
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, unit: t.unit, parent: parent, start: time.Since(t.t0)})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime is the total and self time of one span name.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part covered by direct child spans.
func (t *tracer) selfTimes() []layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	by := map[string]*layerTime{}
	var names []string
	for i, s := range t.spans {
		lt, ok := by[s.name]
		if !ok {
			lt = &layerTime{name: s.name}
			by[s.name] = lt
			names = append(names, s.name)
		}
		lt.count++
		lt.total += s.end - s.start
		lt.self += s.end - s.start - child[i]
	}
	sort.Slice(names, func(a, b int) bool { return by[names[a]].self > by[names[b]].self })
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// chromeEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing load an array of them under "traceEvents".
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(w io.Writer) error {
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "unit": s.unit},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// writeChromeFile writes the trace to path.
func (t *tracer) writeChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := t.writeChrome(bw); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", lt.name, lt.count, ms(lt.total), ms(lt.self))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
