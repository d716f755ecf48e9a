package la

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelCutoff is the problem size below which the parallel kernels run
// serially: goroutine fan-out costs on the order of microseconds, which
// dwarfs the arithmetic of small vectors. The value is a var so tests can
// lower it to exercise the parallel paths on small inputs.
var parallelCutoff = 1 << 13

// Workers resolves a requested parallelism degree: values > 0 are taken as
// given, anything else means "use all of GOMAXPROCS". This is the shared
// interpretation of the Parallelism knobs across the solver stack (0 = auto,
// 1 = serial, k = k workers).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// parFor splits [0, n) into at most `workers` contiguous chunks and runs fn
// on each concurrently, returning when all chunks finish. fn must be safe to
// run concurrently on disjoint ranges. workers is assumed >= 2 and n >= 1.
func parFor(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// reduceBlockSize is the fixed block length of the parallel reduction
// (GramP). Partial results are computed per block and combined in block
// order, so a reduction depends only on the vector length — not on the
// worker count or GOMAXPROCS — making parallel results reproducible across
// machines. 4096 amortizes goroutine scheduling while leaving enough blocks
// to balance load.
const reduceBlockSize = 1 << 12

// parBlocks runs fn over the fixed-size blocks of [0, n) on at most
// `workers` goroutines, block b spanning [b*reduceBlockSize, ...). Blocks
// are assigned round-robin; fn must only write state owned by its block.
func parBlocks(n, workers int, fn func(block, lo, hi int)) {
	nblocks := (n + reduceBlockSize - 1) / reduceBlockSize
	if workers > nblocks {
		workers = nblocks
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := g; b < nblocks; b += workers {
				lo := b * reduceBlockSize
				hi := lo + reduceBlockSize
				if hi > n {
					hi = n
				}
				fn(b, lo, hi)
			}
		}(g)
	}
	wg.Wait()
}

// numBlocks returns the block count parBlocks uses for length n.
func numBlocks(n int) int { return (n + reduceBlockSize - 1) / reduceBlockSize }

// AxpyP is Axpy (y += alpha*x) with goroutine-chunked updates. The update is
// elementwise, so the result is bit-identical to the serial Axpy at every
// worker count.
func AxpyP(alpha float64, x, y []float64, workers int) {
	w := Workers(workers)
	n := len(x)
	if w <= 1 || n < parallelCutoff || len(y) != n {
		Axpy(alpha, x, y)
		return
	}
	if alpha == 0 {
		return
	}
	parFor(n, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// ScaleP is Scale with goroutine-chunked updates; elementwise, hence
// bit-identical to the serial Scale at every worker count.
func ScaleP(alpha float64, x []float64, workers int) {
	w := Workers(workers)
	n := len(x)
	if w <= 1 || n < parallelCutoff {
		Scale(alpha, x)
		return
	}
	parFor(n, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= alpha
		}
	})
}

// MulVecP computes dst = C*x with rows split across goroutines. Every row is
// accumulated exactly as in the serial MulVec, so the result is bit-identical
// to MulVec at every worker count; parallelism only changes which goroutine
// writes which rows.
func (c *CSR) MulVecP(dst, x []float64, workers int) {
	w := Workers(workers)
	if w <= 1 || c.NNZ() < parallelCutoff {
		c.MulVec(dst, x)
		return
	}
	if len(dst) != c.n || len(x) != c.m {
		c.MulVec(dst, x) // delegate for the canonical panic message
		return
	}
	parFor(c.n, w, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
				s += c.values[k] * x[c.colIdx[k]]
			}
			dst[i] = s
		}
	})
}

// GramP sets g[i*len(ys)+j] = xs[i]·ys[j] for every pair of vectors, all of
// length n. Every product is summed over the fixed reduceBlockSize blocks
// and the partials are combined in block order at every worker count, one
// included, so the result depends only on the inputs, and a block solver
// built on it returns the same bits at every Parallelism. One pass over each
// block serves every pair while the block is still in cache.
func GramP(g []float64, xs, ys [][]float64, workers int) {
	nx, ny := len(xs), len(ys)
	if len(g) != nx*ny {
		panic(fmt.Sprintf("la: GramP result length %d, want %d", len(g), nx*ny))
	}
	if nx == 0 || ny == 0 {
		return
	}
	n := len(xs[0])
	for _, vs := range [2][][]float64{xs, ys} {
		for _, v := range vs {
			if len(v) != n {
				panic(fmt.Sprintf("la: GramP length mismatch %d != %d", len(v), n))
			}
		}
	}
	nb := numBlocks(n)
	partial := make([]float64, nb*nx*ny)
	block := func(b, lo, hi int) {
		p := partial[b*nx*ny : (b+1)*nx*ny]
		for i, x := range xs {
			x = x[lo:hi]
			for j, y := range ys {
				y = y[lo:hi]
				var s float64
				for t, v := range x {
					s += v * y[t]
				}
				p[i*ny+j] = s
			}
		}
	}
	if w := Workers(workers); w > 1 && n >= parallelCutoff {
		parBlocks(n, w, block)
	} else {
		for b := 0; b < nb; b++ {
			block(b, b*reduceBlockSize, min((b+1)*reduceBlockSize, n))
		}
	}
	clear(g)
	for b := 0; b < nb; b++ {
		for k, v := range partial[b*nx*ny : (b+1)*nx*ny] {
			g[k] += v
		}
	}
}

// CombineP sets dst[j] = Σ_a c[a*len(dst)+j]·src[a] for every column j: the
// n x len(dst) product of the column block src (n x len(src)) with the
// row-major coefficient matrix c. Each entry is accumulated in the same
// order on every goroutine split, so the result is bit-identical at every
// worker count. dst must not alias src.
func CombineP(dst, src [][]float64, c []float64, workers int) {
	k := len(dst)
	if len(c) != len(src)*k {
		panic(fmt.Sprintf("la: CombineP coefficients %d, want %d", len(c), len(src)*k))
	}
	if k == 0 {
		return
	}
	n := len(dst[0])
	rows := func(lo, hi int) {
		for j, d := range dst {
			d = d[lo:hi]
			clear(d)
			for a, s := range src {
				if f := c[a*k+j]; f != 0 {
					s = s[lo:hi]
					for t := range d {
						d[t] += f * s[t]
					}
				}
			}
		}
	}
	if w := Workers(workers); w > 1 && n >= parallelCutoff {
		parFor(n, w, rows)
		return
	}
	// Serially, one cache-sized block of rows at a time.
	for lo := 0; lo < n; lo += reduceBlockSize {
		rows(lo, min(lo+reduceBlockSize, n))
	}
}
