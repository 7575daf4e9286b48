package fleet

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// drain pops every event in queue order.
func drain(q *queue) []event {
	var out []event
	for len(q.heap) > 0 {
		out = append(out, q.heap[0])
		q.pop()
	}
	return out
}

// Property: the queue pops any set of events in time order, and
// simultaneous ones in the order they were numbered: a stable sort of
// the events by time.
func TestQueuePopsStablyByTime(t *testing.T) {
	f := func(raw []uint8) bool {
		var q queue
		var pushed []event
		for i, v := range raw {
			e := q.event(float64(v%32), int32(i))
			pushed = append(pushed, e)
			q.push(e)
		}
		slices.SortStableFunc(pushed, func(a, b event) int { return cmp.Compare(a.at, b.at) })
		return slices.Equal(drain(&q), pushed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueSimultaneousEventsAreFIFO(t *testing.T) {
	var q queue
	for i := 0; i < 10; i++ {
		q.push(q.event(7, int32(i)))
	}
	for i, e := range drain(&q) {
		if e.slot != int32(i) {
			t.Fatalf("FIFO violated at %d: popped slot %d", i, e.slot)
		}
	}
}

// Numbering an event in the past or at a non-finite time panics.
func TestQueueCausality(t *testing.T) {
	q := queue{now: 10}
	for _, bad := range []float64{5, math.Nextafter(10, 0), math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("event at %v accepted at now 10", bad)
				}
			}()
			q.event(bad, 0)
		}()
	}
	if e := q.event(10, 0); e.at != 10 {
		t.Errorf("event at now numbered at %v", e.at)
	}
}

// Replacing the root, as the replay does when a finished step's group
// starts its next one, leaves the queue popping exactly as a pop
// followed by a push would, including events scheduled for the very
// time being handled.
func TestQueueReplaceEqualsPopPush(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var a queue
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			a.push(a.event(float64(r.Intn(8)), int32(i)))
		}
		b := queue{heap: slices.Clone(a.heap), seq: a.seq}
		for len(a.heap) > 0 {
			root := a.heap[0]
			a.now, b.now = root.at, root.at
			if r.Intn(4) == 0 {
				a.pop()
				b.pop()
				continue
			}
			at := root.at + float64(r.Intn(3))
			a.replace(a.event(at, root.slot))
			b.pop()
			b.push(b.event(at, root.slot))
			if a.heap[0] != b.heap[0] {
				t.Fatalf("trial %d: replace exposed root %+v, pop+push %+v", trial, a.heap[0], b.heap[0])
			}
			if r.Intn(8) == 0 {
				break
			}
		}
		if got, want := drain(&a), drain(&b); !slices.Equal(got, want) {
			t.Fatalf("trial %d: replace drains as %v, pop+push as %v", trial, got, want)
		}
	}
}
