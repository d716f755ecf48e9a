// Protocol edge cases: the request-body size cap at its exact boundary,
// malformed and non-integer JSON, and the empty batch — each paired with
// an assertion that the pooled protoScratch was released, because the
// error paths are exactly where a leaked lease would hide — and the reply
// frame: Accept negotiation, no framed partials, and whole-frame checks.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// postBalanced drives one request and fails the test if the handler did
// not release every protoScratch it leased. ServeHTTP runs the handler
// synchronously, so the live count must be back to its pre-request value
// by the time it returns — no polling, no slack.
func postBalanced(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	before := protoLive.Load()
	w := post(t, s, path, body)
	if after := protoLive.Load(); after != before {
		t.Fatalf("POST %s leaked scratch: %d live after, %d before", path, after, before)
	}
	return w
}

func newEdgeServer(t *testing.T) *Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	return newTestServer(t, path, nil)
}

// padTo right-pads a JSON document with spaces to exactly n bytes.
// Trailing whitespace is valid JSON, so the padded body exercises the
// size check without changing what it decodes to.
func padTo(t *testing.T, doc string, n int) string {
	t.Helper()
	if len(doc) > n {
		t.Fatalf("document already %d bytes, cannot pad to %d", len(doc), n)
	}
	return doc + strings.Repeat(" ", n-len(doc))
}

// TestBodySizeCapBoundary pins the cap to its documented edge: a body of
// exactly maxRequestBody bytes is served, one byte more is rejected
// before JSON decoding with a 400 naming the cap.
func TestBodySizeCapBoundary(t *testing.T) {
	s := newEdgeServer(t)

	w := postBalanced(t, s, "/v1/rank", padTo(t, `{"coords":[0,0]}`, maxRequestBody))
	if w.Code != http.StatusOK {
		t.Fatalf("exactly-at-cap body: status %d body %q, want 200", w.Code, w.Body)
	}

	w = postBalanced(t, s, "/v1/rank", padTo(t, `{"coords":[0,0]}`, maxRequestBody+1))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("one-over-cap body: status %d, want 400", w.Code)
	}
	if !strings.Contains(w.Body.String(), "request body too large") {
		t.Fatalf("oversize rejection must name the cause: %q", w.Body)
	}
}

// TestMalformedBodyRejected covers bodies that die in the decoder:
// truncated JSON, the wrong top-level type, and an empty body.
func TestMalformedBodyRejected(t *testing.T) {
	s := newEdgeServer(t)
	cases := []struct {
		name, path, body string
	}{
		{"truncated_object", "/v1/rank", `{"coords":[0,`},
		{"truncated_string", "/v1/rank", `{"coords`},
		{"empty_body", "/v1/rank", ``},
		{"wrong_type", "/v1/rank", `[0,0]`},
		{"truncated_batch", "/v1/batch", `{"boxes":[{"start":[0,0],"dims":`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postBalanced(t, s, c.path, c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d body %q, want 400", w.Code, w.Body)
			}
		})
	}
}

// TestNonIntegerCoordsRejected: coordinates are integer grid cells; the
// decoder must refuse fractions, overflow, and the JSON spellings clients
// produce for non-finite floats (bare words are invalid JSON; huge
// exponents overflow int) rather than silently truncating.
func TestNonIntegerCoordsRejected(t *testing.T) {
	s := newEdgeServer(t)
	cases := []struct {
		name, body string
	}{
		{"fraction", `{"coords":[1.5,0]}`},
		{"exponent_overflow", `{"coords":[1e999,0]}`},
		{"int_overflow", `{"coords":[99999999999999999999,0]}`},
		{"nan_word", `{"coords":[NaN,0]}`},
		{"infinity_word", `{"coords":[Infinity,0]}`},
		{"string_coord", `{"coords":["3",0]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postBalanced(t, s, "/v1/rank", c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d body %q, want 400", w.Code, w.Body)
			}
		})
	}
}

// TestEmptyBatchRejected: a batch with no boxes is a client error, not a
// trivially-successful query — both the explicit empty array and the
// missing field reject with 400.
func TestEmptyBatchRejected(t *testing.T) {
	s := newEdgeServer(t)
	for _, body := range []string{`{"boxes":[]}`, `{}`} {
		w := postBalanced(t, s, "/v1/batch", body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("empty batch %q: status %d body %q, want 400", body, w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), "batch") {
			t.Fatalf("rejection must say what was empty: %q", w.Body)
		}
	}
}

// TestScratchReleasedOnSuccess anchors the postBalanced assertion on the
// happy path too, so a counting bug cannot hide behind error-only use.
func TestScratchReleasedOnSuccess(t *testing.T) {
	s := newEdgeServer(t)
	w := postBalanced(t, s, "/v1/box", `{"start":[0,0],"dims":[2,2]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %q", w.Code, w.Body)
	}
	if g := get(t, s, "/stats"); g.Code != http.StatusOK {
		t.Fatalf("stats: status %d", g.Code)
	}
	if live := protoLive.Load(); live != 0 {
		t.Fatalf("%d scratches still live after sequential requests", live)
	}
}

// postFramed drives one request that asks for a reply frame.
func postFramed(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Accept", FrameContentType)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// frameVals decodes a reply frame into its count, width and values.
func frameVals(t *testing.T, w *httptest.ResponseRecorder) (count, width int, vals []int) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d body %q", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("Content-Type %q, want %q", ct, FrameContentType)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, w.Body.Len())
	}
	count, width, raw, err := ParseFrame(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i += 8 {
		vals = append(vals, int(binary.LittleEndian.Uint64(raw[i:])))
	}
	return count, width, vals
}

// TestReplyFrameNegotiation pins the Accept negotiation on box and pages:
// with the header the answer is a reply frame carrying exactly the JSON
// answer's values; without it the JSON is unchanged.
func TestReplyFrameNegotiation(t *testing.T) {
	s := newEdgeServer(t)
	const box = `{"start":[1,0],"dims":[2,3]}`

	js := postBalanced(t, s, "/v1/box", box)
	if ct := js.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("box without Accept: Content-Type %q", ct)
	}
	var want struct {
		Count   int     `json:"count"`
		Results [][]int `json:"results"`
	}
	if err := json.Unmarshal(js.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	count, width, vals := frameVals(t, postFramed(t, s, "/v1/box", box))
	if count != want.Count || width != 3 || len(vals) != 3*count {
		t.Fatalf("box frame count %d width %d (%d values), want count %d width 3", count, width, len(vals), want.Count)
	}
	for i, row := range want.Results {
		if !slices.Equal(vals[3*i:3*i+3], row) {
			t.Fatalf("box frame row %d = %v, JSON row %v", i, vals[3*i:3*i+3], row)
		}
	}

	var runs struct {
		Runs [][]int `json:"runs"`
	}
	if err := json.Unmarshal(postBalanced(t, s, "/v1/pages", box).Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	count, width, vals = frameVals(t, postFramed(t, s, "/v1/pages", box))
	if count != len(runs.Runs) || width != 2 {
		t.Fatalf("pages frame count %d width %d, want %d runs of width 2", count, width, len(runs.Runs))
	}
	for i, run := range runs.Runs {
		if !slices.Equal(vals[2*i:2*i+2], run) {
			t.Fatalf("pages frame run %d = %v, JSON run %v", i, vals[2*i:2*i+2], run)
		}
	}

	if live := protoLive.Load(); live != 0 {
		t.Fatalf("%d scratches still live", live)
	}
}

// partialQ answers every box and pages query for the shards it has and
// labels the rest missing, as a router in -partial mode does.
type partialQ struct{ Queryable }

func (q partialQ) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(int, []int) bool) error {
	if err := q.Queryable.ScanIntoContext(ctx, b, yield); err != nil {
		return err
	}
	return &PartialError{Missing: []int{1}}
}

func (q partialQ) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	runs, err := q.Queryable.PagesIntoContext(ctx, b, dst)
	if err != nil {
		return runs, err
	}
	return runs, &PartialError{Missing: []int{1}}
}

// TestFramedPartialIsBadGateway pins that a partial answer is never
// framed: a frame has no shards_missing, so the framed request fails
// whole with 502 while the JSON one is labeled.
func TestFramedPartialIsBadGateway(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	s := newTestServer(t, path, func(c *Config) {
		c.Open = func(p string) (Queryable, error) {
			q, err := Open(p)
			if err != nil {
				return nil, err
			}
			return partialQ{q}, nil
		}
	})
	const box = `{"start":[0,0],"dims":[2,2]}`
	for _, path := range []string{"/v1/box", "/v1/pages"} {
		if w := postBalanced(t, s, path, box); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards_missing":[1]`) {
			t.Fatalf("JSON %s: status %d body %q, want a labeled partial", path, w.Code, w.Body)
		}
		if w := postFramed(t, s, path, box); w.Code != http.StatusBadGateway {
			t.Fatalf("framed %s: status %d body %q, want 502", path, w.Code, w.Body)
		}
	}
	if live := protoLive.Load(); live != 0 {
		t.Fatalf("%d scratches still live", live)
	}
}

// TestParseFrameRejects pins ParseFrame's whole-frame checks: every
// truncation, a flipped byte anywhere, and a count×width that wraps
// around to the frame's length are refused.
func TestParseFrameRejects(t *testing.T) {
	b, at := AppendFrameHeader(nil)
	b = AppendFrameRow(b, 7, []int{1, 2})
	b = AppendFrameRow(b, 9, []int{3, 4})
	good := FinishFrame(b, at, 2, 3)
	if c, w, vals, err := ParseFrame(good); err != nil || c != 2 || w != 3 || len(vals) != 48 {
		t.Fatalf("good frame: count %d width %d %d bytes, %v", c, w, len(vals), err)
	}
	for n := 0; n < len(good); n++ {
		if _, _, _, err := ParseFrame(good[:n]); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	for i := range good {
		bad := slices.Clone(good)
		bad[i] ^= 0x10
		if _, _, _, err := ParseFrame(bad); err == nil {
			t.Fatalf("frame with byte %d flipped accepted", i)
		}
	}
	// (2^64+2)/3 rows of width 3 is 2^64+2 values: modulo 2^64, exactly
	// the frame's two. A multiplying check would take it.
	b, at = AppendFrameHeader(nil)
	b = AppendFrameRow(b, 0, []int{0})
	if _, _, _, err := ParseFrame(FinishFrame(b, at, 6148914691236517206, 3)); err == nil {
		t.Fatal("count×width that wraps to the frame length accepted")
	}
	if allocs := testing.AllocsPerRun(100, func() { ParseFrame(good) }); allocs != 0 {
		t.Fatalf("ParseFrame allocates %.0f times", allocs)
	}
}
