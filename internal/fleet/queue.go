package fleet

import (
	"fmt"
	"math"
)

// event is one pending event on the fleet clock: the step in flight on
// group slot finishing at at, or the fault when slot is the group
// count. seq numbers events in the order they were scheduled.
type event struct {
	at   float64
	seq  uint64
	slot int32
}

// before orders events by time, simultaneous ones FIFO.
func (e event) before(o event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// queue is the replay's clock and its pending events: a binary min-heap
// by (at, seq) of plain values, so a sift pays no write barrier.
type queue struct {
	heap []event
	now  float64 // the time of the event being handled
	seq  uint64  // events numbered so far
}

// event numbers an event at time at for slot. An event in the past or
// at a non-finite time panics: it indicates a causality bug in the
// model.
func (q *queue) event(at float64, slot int32) event {
	if at < q.now {
		panic(fmt.Sprintf("fleet: scheduling at %v before now %v", at, q.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("fleet: non-finite event time %v", at))
	}
	q.seq++
	return event{at: at, seq: q.seq, slot: slot}
}

func (q *queue) push(e event) {
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the root.
func (q *queue) pop() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.replace(q.heap[0])
	}
}

// replace overwrites the root with e and sifts it down: a pop and a
// push of e in one pass.
func (q *queue) replace(e event) {
	h := q.heap
	i := 0
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if right := least + 1; right < len(h) && h[right].before(h[least]) {
			least = right
		}
		if !h[least].before(e) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = e
}
