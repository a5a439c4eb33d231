package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Times are nanoseconds since the tracer
// started; parent is the id of the span that caused it (0 = none) and req
// the id of the request or operation the span belongs to.
type span struct {
	id, parent, req int64
	name            string
	start, end      int64
}

// tracer keeps spans in memory for the length of a run.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// now returns the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newID reserves a span id, for a span whose children end before it does.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span under a fresh id.
func (t *tracer) add(name string, parent, req, start, end int64) {
	t.record(span{id: t.newID(), parent: parent, req: req, name: name, start: start, end: end})
}

// record keeps a finished span.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as id,parent,req,name,start_ns,end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the per-layer table: how many spans a layer has,
// their summed duration (busy time, which counts parallel calls once each)
// and their self time (duration minus what child spans cover).
type layerTime struct {
	name       string
	calls      int64
	busy, self time.Duration
}

// spanTimes is what the per-layer figures are read from: every span's self
// time (its duration minus the union of its children, so parallel children
// count once), and every parent's busy time in each child layer.
type spanTimes struct {
	self      map[int64]time.Duration
	childBusy map[int64]map[string]time.Duration
}

func newSpanTimes(spans []span) spanTimes {
	st := spanTimes{self: map[int64]time.Duration{}, childBusy: map[int64]map[string]time.Duration{}}
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		if st.childBusy[s.parent] == nil {
			st.childBusy[s.parent] = map[string]time.Duration{}
		}
		st.childBusy[s.parent][s.name] += time.Duration(s.end - s.start)
	}
	for _, s := range spans {
		st.self[s.id] = time.Duration(selfTime(interval{s.start, s.end}, children[s.id]))
	}
	return st
}

// layerTimes aggregates spans by name.
func layerTimes(spans []span, st spanTimes) []*layerTime {
	byName := map[string]*layerTime{}
	for _, s := range spans {
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
		}
		lt.calls++
		lt.busy += time.Duration(s.end - s.start)
		lt.self += st.self[s.id]
	}
	out := make([]*layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// printLayerTable writes the per-layer self-time table.
func printLayerTable(w io.Writer, rows []*layerTime) {
	fmt.Fprintf(w, "%-22s %10s %14s %14s %12s\n", "layer span", "calls", "busy", "self", "self/call")
	for _, r := range rows {
		per := time.Duration(0)
		if r.calls > 0 {
			per = r.self / time.Duration(r.calls)
		}
		fmt.Fprintf(w, "%-22s %10d %14v %14v %12v\n", r.name, r.calls,
			r.busy.Round(time.Microsecond), r.self.Round(time.Microsecond), per)
	}
}

// selfCPU returns the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
