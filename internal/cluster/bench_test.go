package cluster

import (
	"path/filepath"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// BenchmarkReplyDecode measures the router's work on one part's reply,
// given a real worker's reply frame: the whole-frame checks (magic,
// length, CRC32C) and the one pass that decodes the values into pooled
// flat storage while validating rank block, ascent and shard bounds.
// Every row runs at 0 allocs/op, tracked in BENCH_query.json.
func BenchmarkReplyDecode(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sharded.slpm")
	writeShardedFile(b, path, 2, spectrallpm.WithGrid(128, 128), spectrallpm.WithPageSize(16))
	g, workers := startFleet(b, path, 2)
	box := func(x, y, w, h int) string {
		return boxBody(spectrallpm.Box{Start: []int{g.lo[0][0] + x, g.lo[0][1] + y}, Dims: []int{w, h}})
	}
	cases := []struct {
		name, path, body string
		pages            bool
		rows             int
	}{
		{"box256", "/v1/box", box(0, 0, 16, 16), false, 256},
		{"box4k", "/v1/box", box(0, 0, 64, 64), false, 4096},
		{"pages", "/v1/pages", box(8, 0, 16, 64), true, 0}, // 64 runs of 16-record pages
	}
	for _, tc := range cases {
		rp := framed(askWorker(b, workers[0], tc.path, tc.body))
		if err := g.decodePart(0, rp, tc.pages); err != nil {
			b.Fatal(err)
		}
		if !tc.pages && len(rp.vals) != tc.rows*(1+g.d) {
			b.Fatalf("%s: %d values, want %d rows", tc.name, len(rp.vals), tc.rows)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(rp.data)))
			for b.Loop() {
				if err := g.decodePart(0, rp, tc.pages); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
