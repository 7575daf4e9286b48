package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sortedRank is the reference the in-place selection replaces: the
// nearest-rank percentile of a sorted copy.
func sortedRank(values []float64, p float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// The selected P50 and P99 equal the sorted nearest ranks on random
// series with duplicates and on the orders a fleet produces (ascending
// completion latencies when saturated, a few repeated TTFTs when
// idle), and the selection leaves a permutation of its input.
func TestPercentilesMatchSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 99, 100, 101, 100_000} {
		series := map[string][]float64{}
		random, dups, ascending, descending := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range random {
			random[i] = r.ExpFloat64()
			dups[i] = float64(r.Intn(4))
			ascending[i] = float64(i) + r.Float64()
			descending[i] = float64(n - i)
		}
		series["random"] = random
		series["duplicates"] = dups
		series["ascending"] = ascending
		series["descending"] = descending
		for name, values := range series {
			want50, want99 := sortedRank(values, 50), sortedRank(values, 99)
			s := slices.Clone(values)
			got50, got99 := percentiles(s)
			if got50 != want50 || got99 != want99 {
				t.Errorf("n=%d %s: percentiles (%g, %g), sorted nearest ranks (%g, %g)",
					n, name, got50, got99, want50, want99)
			}
			slices.Sort(s)
			sorted := slices.Clone(values)
			slices.Sort(sorted)
			if !slices.Equal(s, sorted) {
				t.Errorf("n=%d %s: selection did not permute its input", n, name)
			}
		}
	}
	if p50, p99 := percentiles(nil); p50 != 0 || p99 != 0 {
		t.Errorf("empty series: percentiles (%g, %g), want 0", p50, p99)
	}
}

// selectKth places every rank correctly, not only the two the metrics
// ask for.
func TestSelectKthEveryRank(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 1; n <= 40; n++ {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(r.Intn(n/2 + 1))
		}
		sorted := slices.Sorted(slices.Values(values))
		for k := 0; k < n; k++ {
			s := slices.Clone(values)
			if got := selectKth(s, k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: selected %g, want %g", n, k, got, sorted[k])
			}
			for i := range s {
				if (i < k && s[i] > s[k]) || (i > k && s[i] < s[k]) {
					t.Fatalf("n=%d k=%d: s[%d]=%g on the wrong side of s[k]=%g", n, k, i, s[i], s[k])
				}
			}
		}
	}
}

// Arrival order, not trace order, drives the replay: a shuffled trace
// with tied arrival times serves exactly like its stably sorted copy,
// and Run never modifies the caller's requests, whether it reads a
// sorted trace in place or sorts a copy of a shuffled one.
func TestTraceOrder(t *testing.T) {
	opts := smallOptions(400, 60)
	opts.Groups = 2
	reqs := opts.Trace.Requests
	for i := 1; i < len(reqs); i += 3 {
		reqs[i].ArrivalSeconds = reqs[i-1].ArrivalSeconds // ties
	}
	shuffled := slices.Clone(reqs)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sorted := slices.Clone(shuffled)
	slices.SortStableFunc(sorted, byArrival)
	if slices.Equal(sorted, shuffled) {
		t.Fatal("shuffle left the trace in arrival order")
	}

	run := func(reqs []Request) Metrics {
		before := slices.Clone(reqs)
		o := opts
		o.Trace = Trace{Requests: reqs}
		res := mustFleet(t, o)
		if !slices.Equal(reqs, before) {
			t.Error("Run modified the caller's trace")
		}
		return res.Metrics
	}
	if got, want := run(shuffled), run(sorted); !reflect.DeepEqual(got, want) {
		t.Error("shuffled trace served differently from its stably sorted copy")
	}
}

// conserved rejects each kind of violation: a request left behind, a
// decode budget generated short or over, and a group busier than the
// makespan.
func TestConservationViolations(t *testing.T) {
	ok := func() *fleet {
		return &fleet{
			reqs:          make([]Request, 3),
			completed:     3,
			decodeBudget:  10,
			decodedTokens: 10,
			groups:        []*group{{id: 0, busySeconds: 2}, {id: 1, busySeconds: 4}},
		}
	}
	if err := ok().conserved(4); err != nil {
		t.Fatalf("conserving state rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(f *fleet)
		want   string
	}{
		{"incomplete", func(f *fleet) { f.completed = 2 }, "2 of 3 requests completed"},
		{"left in system", func(f *fleet) { f.depth = 1 }, "1 left in the system"},
		{"short decode", func(f *fleet) { f.decodedTokens = 9 }, "decoded 9 tokens, the trace budgets 10"},
		{"over decode", func(f *fleet) { f.decodedTokens = 11 }, "decoded 11 tokens"},
		{"busy past makespan", func(f *fleet) { f.groups[1].busySeconds = math.Nextafter(4, 5) }, "group 1 busy"},
	} {
		f := ok()
		tc.mutate(f)
		err := f.conserved(4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
