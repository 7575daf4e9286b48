// Package eventsim is the fleet simulator's event queue: callbacks
// scheduled on a shared virtual clock run in time order, FIFO among
// simultaneous events. (The per-run performance simulator, perfsim,
// schedules no events: its devices are plain free times.)
//
// Time is measured in cluster cycles as a float64 so that fractional
// bandwidth quotients (e.g. 0.5 bytes/cycle) accumulate exactly.
package eventsim

import (
	"fmt"
	"math"
)

// Time is a point on the simulated clock, in cycles.
type Time = float64

// Event is a callback scheduled to run at a simulated time.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	call func()
}

// eventQueue is a binary min-heap of events stored by value: pushing
// an event moves the struct into the backing slice instead of
// allocating it on the heap and boxing a pointer through the
// container/heap interface. The fleet simulator schedules millions of
// events per run, so the two allocations per event (one for the
// struct, one for the interface conversion) were the engine's whole
// allocation profile beyond the callback closures themselves.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{} // release the callback reference
	h = h[:n]
	*q = h
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// Engine owns the event queue and the simulated clock.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it indicates a causality bug in the model.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("eventsim: non-finite event time %v", t))
	}
	e.seq++
	e.queue.push(event{at: t, seq: e.seq, call: fn})
}

// Run executes events until the queue is empty and returns the final
// simulated time.
func (e *Engine) Run() Time {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		e.now = ev.at
		ev.call()
	}
	return e.now
}
