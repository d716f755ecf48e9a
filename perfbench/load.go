package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"
)

// httpClient is one load-generator connection: a transport limited to a
// single connection and a reusable response buffer.
type httpClient struct {
	tr   *http.Transport
	hc   *http.Client
	base string
	buf  []byte
}

func newHTTPClient(addr string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{tr: tr, hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

// do sends r and returns the response status and body. The body aliases
// the client's buffer until the next call.
func (c *httpClient) do(r *request) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf = c.buf[:0]
	if n := resp.ContentLength; n >= 0 {
		c.buf = slices.Grow(c.buf, int(n))[:n]
		_, err = io.ReadFull(resp.Body, c.buf)
	} else {
		var bb bytes.Buffer
		_, err = bb.ReadFrom(resp.Body)
		c.buf = append(c.buf, bb.Bytes()...)
	}
	return resp.StatusCode, c.buf, err
}

// send performs r and checks the answer against the oracle: a transport
// error, a non-200 status or a response that differs is a failure.
func (c *httpClient) send(r *request) error {
	status, body, err := c.do(r)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", r.path, r.body, status, bytes.TrimSpace(body))
	}
	return r.check(body)
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

// get fetches a small GET endpoint such as /stats.
func (c *httpClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// window is one stretch of a load phase.
type window struct {
	lat [numOps][]int64 // ns, successful requests only
	dur time.Duration
}

func (w *window) all() []int64 {
	var out []int64
	for _, l := range w.lat {
		out = append(out, l...)
	}
	return out
}

// loadStats is the outcome of one load phase: per-op latencies of the
// successful requests, overall and per window, and the attempted and
// failed counts.
type loadStats struct {
	lat       [numOps][]int64 // ns
	windows   []*window
	attempted int64
	failed    int64
	elapsed   time.Duration
	firstErr  error
}

func (s *loadStats) merge(o *loadStats) {
	for op := range s.lat {
		s.lat[op] = append(s.lat[op], o.lat[op]...)
	}
	s.windows = append(s.windows, o.windows...)
	s.elapsed += o.elapsed
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *loadStats) ok() int64 {
	var n int64
	for _, l := range s.lat {
		n += int64(len(l))
	}
	return n
}

// closedLoop runs `workers` closed-loop senders for d: each sends its next
// request only after the previous one completed, walking the request list
// from its own offset past start. When limit > 0 each worker stops after
// limit requests instead of at the deadline. send reports a failed
// request. The phase is one window of the returned stats.
func closedLoop(workers int, d time.Duration, limit, start int, reqs []*request, send func(w int, r *request) error) *loadStats {
	per := make([]*loadStats, workers)
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		st := &loadStats{}
		per[w] = st
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := start + w*len(reqs)/workers
			for n := 0; ; n++ {
				if limit > 0 && n >= limit || limit <= 0 && !time.Now().Before(deadline) {
					break
				}
				r := reqs[i%len(reqs)]
				i++
				t := time.Now()
				err := send(w, r)
				lat := time.Since(t)
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.lat[r.op] = append(st.lat[r.op], int64(lat))
			}
		}(w)
	}
	wg.Wait()
	total := &loadStats{elapsed: time.Since(t0)}
	for _, st := range per {
		total.merge(st)
	}
	total.windows = []*window{{lat: total.lat, dur: total.elapsed}}
	return total
}

// percentile returns the nearest-rank p-quantile of xs (0 < p ≤ 1).
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p*float64(len(s))+0.999999) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// serveMetrics reports the request-level end-to-end metrics of a load
// phase: each is computed per window and the median over the windows is
// reported, so a short stall of the machine moves one window, not the
// run. limit is the workload's latency limit for goodput.
func serveMetrics(rep *report, st *loadStats, limit time.Duration) {
	perWindow := func(f func(w *window) float64) float64 {
		vals := make([]float64, len(st.windows))
		for i, w := range st.windows {
			vals[i] = f(w)
		}
		return median(vals)
	}
	rep.set("throughput_rps", "1/s", perWindow(func(w *window) float64 {
		return float64(len(w.all())) / w.dur.Seconds()
	}))
	rep.set("goodput_rps", "1/s", perWindow(func(w *window) float64 {
		good := 0
		for _, l := range w.all() {
			if l <= int64(limit) {
				good++
			}
		}
		return float64(good) / w.dur.Seconds()
	}))
	rep.set("latency_p50_us", "us", perWindow(func(w *window) float64 { return percentile(w.all(), 0.50) / 1e3 }))
	rep.set("latency_p99_us", "us", perWindow(func(w *window) float64 { return percentile(w.all(), 0.99) / 1e3 }))
	minSamples := len(st.windows[0].all())
	for op := opClass(0); op < numOps; op++ {
		rep.set(opNames[op]+"_p50_us", "us", perWindow(func(w *window) float64 { return percentile(w.lat[op], 0.50) / 1e3 }))
	}
	for _, w := range st.windows {
		minSamples = min(minSamples, len(w.all()))
	}
	rep.notef("load: %d attempted, %d failed, %d ok in %.2fs over %d windows; each window's p99 rests on >= %d samples beyond it; goodput limit %v",
		st.attempted, st.failed, st.ok(), st.elapsed.Seconds(), len(st.windows), minSamples/100, limit)
	var rates []string
	for _, w := range st.windows {
		rates = append(rates, fmt.Sprintf("%.0f", float64(len(w.all()))/w.dur.Seconds()))
	}
	rep.notef("per-window throughput (1/s): %v", rates)
	if st.firstErr != nil {
		rep.notef("first failure: %v", st.firstErr)
	}
}
