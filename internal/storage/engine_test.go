package storage

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// naiveBoxRanks is the enumerate-filter-sort oracle the engine must match
// rank-for-rank.
func naiveBoxRanks(m *order.Mapping, b workload.Box) []int {
	ids := workload.IDsInBox(m.Grid(), b)
	ranks := make([]int, len(ids))
	for i, id := range ids {
		ranks[i] = m.Rank(id)
	}
	sort.Ints(ranks)
	return ranks
}

// randomMapping builds a mapping over g with a random rank permutation —
// the adversarial case for the engine, exercising maximal run fragmentation.
func randomMapping(t *testing.T, g *graph.Grid, rng *rand.Rand) *order.Mapping {
	t.Helper()
	m, err := order.FromRanks("shuffled", g, rng.Perm(g.Size()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBoxRanksMatchesOracle drives the engine over random grids, mappings,
// and boxes — including full-grid boxes, single cells, single-row boxes
// that take the row filter, and multi-row boxes that take the gather —
// comparing against the oracle.
func TestBoxRanksMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(3)
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 1 + rng.Intn(9)
		}
		g := graph.MustGrid(dims...)
		var m *order.Mapping
		var err error
		switch trial % 3 {
		case 0:
			m = randomMapping(t, g, rng)
		case 1:
			m, err = order.New("sweep", g, order.SpectralConfig{})
		default:
			m, err = order.NewDiagonal(g)
		}
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStore(m, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		box := randomBoxIn(g, rng)
		if trial%7 == 0 {
			// Full-grid box: every rank, the widest gather.
			box = workload.Box{Start: make([]int, d), Dims: append([]int(nil), g.Dims()...)}
		}
		want := naiveBoxRanks(m, box)
		got, err := st.BoxRanks(box)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("grid %v box %v (%s): got %v want %v", dims, box, m.Name(), got, want)
		}
		// Append semantics: existing contents are untouched.
		prefix := []int{-7, -8}
		appended, err := st.BoxRanksAppend(prefix, box)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(appended[:2], prefix[:2]) || !slices.Equal(appended[2:], want) {
			t.Fatalf("append semantics broken: %v", appended)
		}
		// Runs and QueryIO must agree with plans derived from the oracle.
		wantRuns, err := st.Pager().Runs(want)
		if err != nil {
			t.Fatal(err)
		}
		gotRuns, err := st.BoxRuns(box)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotRuns, wantRuns) {
			t.Fatalf("runs: got %v want %v", gotRuns, wantRuns)
		}
		io, err := st.BoxQueryIO(box)
		if err != nil {
			t.Fatal(err)
		}
		if want := statsOf(wantRuns); io != want {
			t.Fatalf("io: got %+v want %+v", io, want)
		}
	}
}

func randomBoxIn(g *graph.Grid, rng *rand.Rand) workload.Box {
	d := g.D()
	start := make([]int, d)
	dims := make([]int, d)
	for i, s := range g.Dims() {
		start[i] = rng.Intn(s)
		dims[i] = 1 + rng.Intn(s-start[i])
	}
	return workload.Box{Start: start, Dims: dims}
}

// statsOf folds a run plan into IOStats the way the pre-engine QueryIO did.
func statsOf(runs []PageRun) IOStats {
	if len(runs) == 0 {
		return IOStats{}
	}
	st := IOStats{Seeks: len(runs)}
	for _, r := range runs {
		st.Pages += r.Pages
	}
	last := runs[len(runs)-1]
	st.SpanPages = last.Start + last.Pages - runs[0].Start
	return st
}

// TestRunsAppendUnsorted checks the unsorted fallback and hoisted
// validation of RunsAppend/QueryIO.
func TestRunsAppendUnsorted(t *testing.T) {
	p, err := NewPager(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	unsorted := []int{95, 3, 42, 41, 4, 96}
	runs, err := p.RunsAppend(nil, unsorted)
	if err != nil {
		t.Fatal(err)
	}
	want := []PageRun{{Start: 0, Pages: 1}, {Start: 4, Pages: 1}, {Start: 9, Pages: 1}}
	if !slices.Equal(runs, want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	// The input slice must not be reordered by the fallback.
	if !slices.Equal(unsorted, []int{95, 3, 42, 41, 4, 96}) {
		t.Fatalf("input mutated: %v", unsorted)
	}
	io, err := p.QueryIO(unsorted)
	if err != nil {
		t.Fatal(err)
	}
	if io.Pages != 3 || io.Seeks != 3 || io.SpanPages != 10 {
		t.Fatalf("io = %+v", io)
	}
	// Out-of-range ranks error once, wherever they hide in the input.
	if _, err := p.RunsAppend(nil, []int{5, 100, 6}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := p.QueryIO([]int{-1, 5}); err == nil {
		t.Error("negative rank accepted")
	}
}

// TestBoxStrategyBoundaries pins the engine's one strategy choice — row
// filter for a single-slab box nearly as wide as its row, gather for
// everything else — and checks every shape on both sides of it against the
// oracle, including multi-row boxes as wide as their rows and a span wide
// enough to force the gather's sort fallback.
func TestBoxStrategyBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	flat := graph.MustGrid(16, 64)
	cube := graph.MustGrid(4, 6, 8)
	wide := graph.MustGrid(256, 256)
	for _, tc := range []struct {
		name   string
		g      *graph.Grid
		box    workload.Box
		filter bool // row filter (true) or gather (false)
		sorted bool // gather span too wide for the bitmap: sort fallback
	}{
		{"row/full-width", flat, workload.Box{Start: []int{3, 0}, Dims: []int{1, 64}}, true, false},
		{"row/partial", flat, workload.Box{Start: []int{3, 10}, Dims: []int{1, 40}}, true, false},
		{"row/narrow", flat, workload.Box{Start: []int{3, 10}, Dims: []int{1, 5}}, false, false},
		{"row/cell", flat, workload.Box{Start: []int{5, 5}, Dims: []int{1, 1}}, false, false},
		{"rows/skinny", flat, workload.Box{Start: []int{2, 30}, Dims: []int{10, 2}}, false, false},
		{"rows/full-width", flat, workload.Box{Start: []int{2, 0}, Dims: []int{10, 64}}, false, false},
		{"rows/wide-partial", flat, workload.Box{Start: []int{0, 10}, Dims: []int{16, 40}}, false, false},
		{"3d/2x2x8", cube, workload.Box{Start: []int{1, 3, 0}, Dims: []int{2, 2, 8}}, false, false},
		{"3d/full-grid", cube, workload.Box{Start: []int{0, 0, 0}, Dims: []int{4, 6, 8}}, false, false},
		{"shuffled/sort-fallback", wide, workload.Box{Start: []int{100, 100}, Dims: []int{2, 2}}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := randomMapping(t, tc.g, rng)
			st, err := NewStore(m, 8)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveBoxRanks(m, tc.box)
			width := tc.box.Dims[len(tc.box.Dims)-1]
			if got := st.layout.filtersRow(width, len(want)); got != tc.filter {
				t.Fatalf("filtersRow = %v, want %v", got, tc.filter)
			}
			if !tc.filter {
				v, lo, hi := len(want), want[0]>>6, want[len(want)-1]>>6
				if got := v >= 2 && hi-lo+1 > v*bits.Len(uint(v)); got != tc.sorted {
					t.Fatalf("sort fallback = %v, want %v (span %d words, %d ranks)", got, tc.sorted, hi-lo+1, v)
				}
			}
			got, err := st.BoxRanks(tc.box)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("box %v: got %v, want %v", tc.box, got, want)
			}
		})
	}
}
