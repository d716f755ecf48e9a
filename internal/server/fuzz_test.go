package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// FuzzDecodeRequest drives the request-body trust boundary. For every
// body, DecodeRequest accepts exactly the bodies within the size cap that
// encoding/json accepts into the endpoint's request type, and every query
// endpoint answers with 200, 400 or 404 — never 5xx — with its protocol
// scratch released. The seeds are valid bodies plus the malformed and
// non-integer cases of the protocol tests.
//
//	go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/server/
func FuzzDecodeRequest(f *testing.F) {
	path := filepath.Join(f.TempDir(), "idx.slpm")
	writeIndexFile(f, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	s := newTestServer(f, path, nil)
	for _, seed := range []string{
		`{"coords":[3,1]}`, `{"rank":5}`, `{"start":[0,0],"dims":[4,4]}`,
		`{"boxes":[{"start":[1,1],"dims":[2,2]},{"start":[0,3],"dims":[4,1]}]}`,
		`{"coords":[0,`, `{"coords`, ``, `[0,0]`, `{"boxes":[{"start":[0,0],"dims":`,
		`{"coords":[1.5,0]}`, `{"coords":[1e999,0]}`, `{"coords":[99999999999999999999,0]}`,
		`{"coords":[NaN,0]}`, `{"coords":["3",0]}`, `{"boxes":[]}`, `{}`,
		`{"start":[0,0],"dims":[9,9]}`, `{"start":[0],"dims":[1]}`, `{"rank":-1}`, `{"coords":[]}`,
	} {
		f.Add([]byte(seed))
	}
	endpoints := []struct {
		path string
		dst  func() any
	}{
		{"/v1/rank", func() any { return new(RankRequest) }},
		{"/v1/point", func() any { return new(PointRequest) }},
		{"/v1/box", func() any { return new(BoxRequest) }},
		{"/v1/pages", func() any { return new(BoxRequest) }},
		{"/v1/batch", func() any { return new(BatchRequest) }},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpoints {
			req := httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body))
			err := DecodeRequest(req, ep.dst())
			want := len(body) <= maxRequestBody && json.Unmarshal(body, ep.dst()) == nil
			if (err == nil) != want {
				t.Fatalf("%s: DecodeRequest error %v, encoding/json accepts: %v", ep.path, err, want)
			}
			before := protoLive.Load()
			w := post(t, s, ep.path, string(body))
			if after := protoLive.Load(); after != before {
				t.Fatalf("%s leaked scratch: %d live after, %d before", ep.path, after, before)
			}
			switch w.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("%s %q: status %d body %q", ep.path, body, w.Code, w.Body)
			}
		}
	})
}
