package cluster

import (
	"context"
	"path/filepath"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// BenchmarkReplyDecode measures the router's work on one part's reply,
// given a real worker's reply frame: the whole-frame checks (magic,
// length, CRC32C) and the one pass that decodes the values into pooled
// flat storage while validating rank block, ascent and shard bounds (box
// rows), or box index, ascent and block pages (batch runs). The pages
// case is the batch of one box a pages query sends; the batch case is one
// shard's part of 16 boxes of 32×32, decoded and then merged box by box
// into IOStats as QueryBatchContext does. Every row runs at 0 allocs/op,
// tracked in BENCH_query.json.
func BenchmarkReplyDecode(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sharded.slpm")
	writeShardedFile(b, path, 2, spectrallpm.WithGrid(128, 128), spectrallpm.WithPageSize(16))
	g, workers := startFleet(b, path, 2)
	box := func(x, y, w, h int) spectrallpm.Box {
		return spectrallpm.Box{Start: []int{g.lo[0][0] + x, g.lo[0][1] + y}, Dims: []int{w, h}}
	}
	rowsPart := func(bx spectrallpm.Box) *part {
		return &part{rp: framed(askWorker(b, workers[0], "/v1/box", boxBody(bx)))}
	}
	batchPart := func(boxes ...spectrallpm.Box) *part {
		p := g.planBatch(boxes)[0]
		if p.shard != 0 {
			b.Fatalf("batch plan starts at shard %d", p.shard)
		}
		p.rp = framed(askWorker(b, workers[0], "/v1/batch", string(p.c.body)))
		return p
	}
	var batch []spectrallpm.Box
	for i := range 16 {
		batch = append(batch, box(8*(i%4), 24*(i/4), 32, 32))
	}
	cases := []struct {
		name   string
		p      *part
		decode func(*part) error
		rows   int  // rows the reply must hold; 0 skips the check
		merge  bool // also merge every box's runs into IOStats
	}{
		{"box256", rowsPart(box(0, 0, 16, 16)), g.decodeRows, 256, false},
		{"box4k", rowsPart(box(0, 0, 64, 64)), g.decodeRows, 4096, false},
		{"pages", batchPart(box(8, 0, 16, 64)), g.decodeBatch, 64, false}, // 64 runs of 16-record pages
		{"batch", batchPart(batch...), g.decodeBatch, 0, true},
	}
	stats := make([]spectrallpm.IOStats, len(batch))
	var runs []spectrallpm.PageRun
	for _, tc := range cases {
		p := tc.p
		if err := tc.decode(p); err != nil {
			b.Fatal(err)
		}
		width := 1 + g.d
		if p.boxes != nil {
			width = 3
		}
		if tc.rows > 0 && len(p.rp.vals) != tc.rows*width {
			b.Fatalf("%s: %d values, want %d rows of %d", tc.name, len(p.rp.vals), tc.rows, width)
		}
		parts := []*part{p}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(p.rp.data)))
			for b.Loop() {
				if err := tc.decode(p); err != nil {
					b.Fatal(err)
				}
				if tc.merge {
					p.next = 0
					for i := range batch {
						runs = mergeBox(runs, parts, i)
						stats[i] = statsFromRuns(runs)
					}
				}
			}
		})
	}
}

// BenchmarkWorkerServing measures a worker's own share of a router query,
// without HTTP: one mapped 512² shard of a 4-way 1024² container answering
// in the global frame. pages-64x64 and scan-64x64 are the worker halves of
// a pages and a box part; batch-16x32x32 builds the reply frame of one
// shard's batch part of 16 boxes of 32×32 — every box's page runs, one
// [box, start page, pages] row per run — as the worker's framed /v1/batch
// does. Every row runs at 0 allocs/op, tracked in BENCH_query.json.
func BenchmarkWorkerServing(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sharded.slpm")
	writeShardedFile(b, path, 4, spectrallpm.WithGrid(1024, 1024))
	q, err := OpenShardWorker(path, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	v := q.(*ShardView)
	if v.N() != 512*512 {
		b.Fatalf("shard holds %d records, want 512²", v.N())
	}
	box := func(x, y, w, h int) spectrallpm.Box {
		return spectrallpm.Box{Start: []int{v.lo[0] + x, v.lo[1] + y}, Dims: []int{w, h}}
	}
	ctx := context.Background()
	big := box(200, 136, 64, 64)
	var batch []spectrallpm.Box
	for i := range 16 {
		batch = append(batch, box(40+96*(i%4), 24+112*(i/4), 32, 32))
	}
	runs := make([]spectrallpm.PageRun, 0, 4096)
	var frame []byte
	rows := 0
	yield := func(int, []int) bool { rows++; return true }
	cases := []struct {
		name string
		run  func() error
	}{
		{"pages-64x64", func() (err error) {
			runs, err = q.PagesIntoContext(ctx, big, runs[:0])
			return err
		}},
		{"scan-64x64", func() error {
			return q.ScanIntoContext(ctx, big, yield)
		}},
		{"batch-16x32x32", func() error {
			var at int
			frame, at = server.AppendFrameHeader(frame[:0])
			count := 0
			for i, bx := range batch {
				var err error
				if runs, err = q.PagesIntoContext(ctx, bx, runs[:0]); err != nil {
					return err
				}
				for _, r := range runs {
					pair := [2]int{r.Start, r.Pages}
					frame = server.AppendFrameRow(frame, i, pair[:])
				}
				count += len(runs)
			}
			frame = server.FinishFrame(frame, at, count, 3)
			return nil
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err != nil { // warm the pools and buffers
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := tc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if rows == 0 || len(runs) == 0 {
		b.Fatal("the boxes miss the shard")
	}
}
