package la

import (
	"math"
	"math/rand"
	"testing"
)

// lowerCutoff temporarily drops the serial cutoff so small vectors exercise
// the parallel code paths.
func lowerCutoff(t *testing.T, v int) {
	t.Helper()
	old := parallelCutoff
	parallelCutoff = v
	t.Cleanup(func() { parallelCutoff = old })
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestParallelKernelsBitCompatibleAtOneWorker is the contract the solver
// stack relies on: workers == 1 must reproduce the serial kernels bit for
// bit, at any size.
func TestParallelKernelsBitCompatibleAtOneWorker(t *testing.T) {
	lowerCutoff(t, 1)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 17, 1000, 10000} {
		x, y := randVec(rng, n), randVec(rng, n)
		ya := append([]float64(nil), y...)
		yb := append([]float64(nil), y...)
		Axpy(0.37, x, ya)
		AxpyP(0.37, x, yb, 1)
		for i := range ya {
			if ya[i] != yb[i] {
				t.Fatalf("n=%d AxpyP(...,1) differs from Axpy at %d", n, i)
			}
		}
	}
}

// TestMulVecPBitIdenticalAtAnyWorkerCount: row-parallel SpMV accumulates
// every row exactly as the serial loop does, so the result must be
// bit-identical at every worker count — this is why the block eigensolver
// can run parallel products without perturbing a single bit.
func TestMulVecPBitIdenticalAtAnyWorkerCount(t *testing.T) {
	lowerCutoff(t, 1)
	rng := rand.New(rand.NewSource(11))
	const n = 300
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 5; k++ {
			b.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, n)
	want := make([]float64, n)
	m.MulVec(want, x)
	for _, w := range []int{1, 2, 3, 7, 16, 64} {
		got := make([]float64, n)
		m.MulVecP(got, x, w)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: %v != %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestAxpyScaleElementwiseBitIdentical(t *testing.T) {
	lowerCutoff(t, 1)
	rng := rand.New(rand.NewSource(13))
	const n = 500
	x, y := randVec(rng, n), randVec(rng, n)
	for _, w := range []int{2, 5, 32} {
		ya := append([]float64(nil), y...)
		yb := append([]float64(nil), y...)
		Axpy(-1.25, x, ya)
		AxpyP(-1.25, x, yb, w)
		for i := range ya {
			if ya[i] != yb[i] {
				t.Fatalf("AxpyP workers=%d differs at %d", w, i)
			}
		}
		sa := append([]float64(nil), x...)
		sb := append([]float64(nil), x...)
		Scale(0.75, sa)
		ScaleP(0.75, sb, w)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("ScaleP workers=%d differs at %d", w, i)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Errorf("Workers(3) = %d", Workers(3))
	}
	if Workers(1) != 1 {
		t.Errorf("Workers(1) = %d", Workers(1))
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("Workers(<=0) must resolve to at least one worker")
	}
}

// The parallel reduction computes per-block partials over fixed-size
// blocks and combines them in block order, so the result depends only on
// the inputs: every worker count, one included, must produce the exact same
// bits (the cross-machine reproducibility guarantee), and all of them agree
// with the serial Dot up to roundoff.
func TestReductionsAccurateAndDeterministicAcrossWorkers(t *testing.T) {
	lowerCutoff(t, 1)
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 100, 3*reduceBlockSize + 17} {
		xs := [][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		ys := [][]float64{randVec(rng, n), randVec(rng, n)}
		want := make([]float64, len(xs)*len(ys))
		GramP(want, xs, ys, 1)
		for i, x := range xs {
			for j, y := range ys {
				if d := math.Abs(want[i*len(ys)+j] - Dot(x, y)); d > 1e-9*float64(n) {
					t.Errorf("n=%d (%d,%d): GramP %v, Dot %v", n, i, j, want[i*len(ys)+j], Dot(x, y))
				}
			}
		}
		for _, w := range []int{2, 3, 8} {
			got := make([]float64, len(want))
			GramP(got, xs, ys, w)
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("n=%d workers=%d entry %d: %v != %v", n, w, k, got[k], want[k])
				}
			}
		}
	}
}

// TestCombinePBitIdenticalAtAnyWorkerCount: each output entry accumulates
// the same terms in the same order on every goroutine split.
func TestCombinePBitIdenticalAtAnyWorkerCount(t *testing.T) {
	lowerCutoff(t, 1)
	rng := rand.New(rand.NewSource(17))
	const n = 2*reduceBlockSize + 5
	src := [][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n)}
	c := []float64{1, 0.5, -2, 0, 0.25, 3}
	run := func(w int) [][]float64 {
		dst := [][]float64{make([]float64, n), make([]float64, n)}
		CombineP(dst, src, c, w)
		return dst
	}
	want := run(1)
	for i := 0; i < n; i++ {
		if e := src[0][i]*1 + src[1][i]*-2 + src[2][i]*0.25; math.Abs(want[0][i]-e) > 1e-12 {
			t.Fatalf("row %d: %v, want %v", i, want[0][i], e)
		}
	}
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		for j := range got {
			for i := range got[j] {
				if got[j][i] != want[j][i] {
					t.Fatalf("workers=%d column %d row %d differs", w, j, i)
				}
			}
		}
	}
}
