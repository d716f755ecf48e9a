package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// BenchmarkServeHTTP measures the protocol layer in isolation: request
// decode, admission, the query against a mapped index, and the buffered
// response encode — driven straight through the handler with no network.
// The harness builds one request and one response writer per row and
// resets them between iterations, so ns/op and allocs/op count the server
// alone; the allocs/op figure is the serving path's per-request allocation
// budget, tracked in BENCH_query.json alongside the engine benchmarks.
func BenchmarkServeHTTP(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.slpm")
	writeIndexFile(b, path,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(8))
	s, err := New(Config{IndexPath: path})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(b.Context())
	h := s.Handler()

	cases := []struct {
		name, path, body string
	}{
		{"rank", "/v1/rank", `{"coords":[3,5]}`},
		{"box", "/v1/box", `{"start":[2,2],"dims":[4,4]}`},
		{"batch", "/v1/batch", `{"boxes":[{"start":[0,0],"dims":[4,4]},{"start":[8,8],"dims":[6,6]},{"start":[3,1],"dims":[2,7]}]}`},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			body := strings.NewReader(tc.body)
			req := httptest.NewRequest(http.MethodPost, tc.path, body)
			w := &benchWriter{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Reset(tc.body)
				w.reset()
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", tc.path, w.code, &w.body)
				}
			}
		})
	}
}

// benchWriter is a reusable http.ResponseWriter for handler benchmarks:
// unlike httptest.ResponseRecorder it can be reset, so a benchmark loop
// does not allocate a recorder per request.
type benchWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *benchWriter) Header() http.Header { return w.header }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *benchWriter) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}
