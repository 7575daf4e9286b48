package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the stack.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	// parent is the index of the enclosing span, -1 at top level.
	parent int
	// op identifies the operation (point, pass, fleet run) the span
	// belongs to; tid the client goroutine that ran it.
	op, tid int
}

// recorder keeps spans in memory for the traced run. It is safe for
// concurrent use; each client nests its own spans. A nil recorder
// records nothing, so one code path serves traced and untraced reps.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string, parent, op, tid int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, op: op, tid: tid})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// endAs closes the span begin returned and renames it, for a call whose
// kind is known only once it has returned.
func (r *recorder) endAs(i int, name string) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].end = now
	r.spans[i].name = name
	r.mu.Unlock()
}

// layerTimes summarizes the closed spans by name: each span's duration
// and its self time (duration minus the time its children cover).
type layerTimes struct {
	durs map[string][]time.Duration
	self map[string]time.Duration
}

func (r *recorder) summarize() layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	lt := layerTimes{durs: map[string][]time.Duration{}, self: map[string]time.Duration{}}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		lt.durs[s.name] = append(lt.durs[s.name], d)
		lt.self[s.name] += d - child[i]
	}
	return lt
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, times in microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]int `json:"args"`
}

// writeChrome writes every closed span as Chrome trace-event JSON, for
// chrome://tracing or Perfetto.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name:  s.name,
			Phase: "X",
			Ts:    float64(s.start) / float64(time.Microsecond),
			Dur:   float64(s.end-s.start) / float64(time.Microsecond),
			PID:   1,
			TID:   s.tid,
			Args:  map[string]int{"op": s.op, "parent": s.parent},
		})
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
