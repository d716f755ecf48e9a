// HTTP handlers: one thin shim per endpoint over the shared serving
// spine in serveDecoded — deadline derivation, bounded admission, request
// decode, the ErrIndexClosed retry loop, and a single buffered write.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/rank", s.handleRank)
	s.mux.HandleFunc("POST /v1/point", s.handlePoint)
	s.mux.HandleFunc("POST /v1/box", s.handleBox)
	s.mux.HandleFunc("POST /v1/pages", s.handlePages)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	if s.cfg.Routes != nil {
		s.cfg.Routes(s, s.mux)
	}
}

// Error sentinels the shell maps to statuses. ErrBadRequest tags
// client-side failures (malformed JSON, oversized bodies; 400).
// ErrUnreachable tags an upstream that failed to answer, or answered
// something that cannot be true (502). ErrWarming tags a Queryable that
// cannot answer yet (503).
var (
	ErrBadRequest  = errors.New("bad request")
	ErrUnreachable = errors.New("upstream unreachable")
	ErrWarming     = errors.New("warming up")
)

// PartialError accompanies an answer that is complete for every shard
// except those in Missing. The box, pages and batch handlers emit the
// answer and label it with shards_missing instead of failing.
type PartialError struct{ Missing []int }

func (e *PartialError) Error() string { return fmt.Sprintf("shards %v missing", e.Missing) }

// partial splits a *PartialError off err: its shards are missing from an
// otherwise valid answer. A type assertion, not errors.As, keeps the
// complete-answer path free of allocations.
func partial(err error) ([]int, error) {
	if pe, ok := err.(*PartialError); ok {
		return pe.Missing, nil
	}
	return nil, err
}

// framedPartial is partial for a reply frame, which cannot carry
// shards_missing: a partial answer fails whole, as a 502.
func framedPartial(err error) error {
	if pe, ok := err.(*PartialError); ok {
		return fmt.Errorf("%w: %v, and a reply frame cannot label a partial answer", ErrUnreachable, pe)
	}
	return err
}

// replyType is the Content-Type of a box or batch answer: a reply frame
// when the request asked for one, JSON otherwise.
func replyType(framed bool) string {
	if framed {
		return FrameContentType
	}
	return jsonType
}

const jsonType = "application/json"

// Upstream is the optional extension of a Queryable whose answers come
// from other processes, such as the cluster router. It carries what
// Queryable cannot express: lookups bounded by the request deadline,
// readiness before the first answer, and extra /stats fields.
type Upstream interface {
	RankContext(ctx context.Context, coords []int) (int, error)
	PointContext(ctx context.Context, rank int) ([]int, error)
	// Ready reports whether queries can be answered; until then /healthz
	// answers 503 "warming".
	Ready() bool
	// AddStats adds the Queryable's own fields to the /stats document.
	AddStats(m map[string]any)
}

// requestContext derives the per-request deadline: timeout_ms from the
// query string, clamped to MaxTimeout, defaulting to DefaultTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			d = min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// RetryAfterSeconds derives the Retry-After header for a shed response:
// the base hint jittered ±50% by the request's shed slot (a monotonically
// increasing counter), so a synchronized burst of shed clients fans its
// retries across a full base-width window instead of stampeding back in
// lockstep. Deterministic in the slot — no RNG on the shed fast path —
// and never below one second, the header's resolution floor.
func RetryAfterSeconds(base time.Duration, slot int64) int {
	if base <= 0 {
		base = time.Second
	}
	phase := time.Duration(slot & 63) // 64-step cycle through the jitter window
	d := base/2 + phase*base/63       // [base/2, 3*base/2]
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// serveDecoded is the serving spine every query endpoint shares:
//
//  1. derive the request deadline,
//  2. pass bounded admission (shed with 429 + a slot-jittered Retry-After,
//     or 504 if the deadline died while queued),
//  3. decode the request body (dst may be nil for body-less endpoints),
//  4. re-check the deadline so an expired request returns 504 before it
//     touches any pooled scratch,
//  5. run fn against the current index handle, retrying on a handle
//     closed by a concurrent reload — the response buffer resets per
//     attempt, so no response mixes two index generations,
//  6. write the fully buffered response, of type contentType, in a single
//     Write.
//
// fn appends the response to ps.Buf and returns nil, or returns an error
// having written nothing the client will see — on error the buffer is
// discarded, so a request that dies mid-query never emits a partial body.
func (s *Server) serveDecoded(w http.ResponseWriter, r *http.Request, dst any, contentType string, fn func(ctx context.Context, q Queryable, ps *ProtoScratch) error) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	release, status, slot := s.admit(ctx)
	if status != 0 {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(s.cfg.RetryAfter, slot)))
			http.Error(w, "overloaded, retry later", status)
			return
		}
		http.Error(w, "deadline exceeded while queued", status)
		return
	}
	defer release()
	faultinject.Fire(faultinject.PointHandlerAdmitted)
	if dst != nil {
		if err := DecodeRequest(r, dst); err != nil {
			http.Error(w, fmt.Sprintf("%v: %v", ErrBadRequest, err), http.StatusBadRequest)
			return
		}
	}
	// A request whose deadline already passed (e.g. it sat at the tail of
	// the queue, or stalled in decode) answers 504 here, before leasing
	// protocol scratch or touching the engine's pooled buffers.
	if err := ctx.Err(); err != nil {
		s.expired.Add(1)
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	// A worker answers from its own engine, so worker.reply fires here,
	// once per query request. A router (an Upstream) fires nothing: its
	// answer is its workers' replies.
	if _, up := s.cur.Load().q.(Upstream); !up {
		faultinject.Fire(faultinject.PointWorkerReply)
	}
	ps := GetProto()
	defer ps.Put()
	err := s.withIndex(func(q Queryable) error {
		ps.Buf = ps.Buf[:0]
		return fn(ctx, q, ps)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	faultinject.Fire(faultinject.PointHandlerWrite)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(ps.Buf)))
	w.Write(ps.Buf)
}

// writeError maps engine and upstream errors to HTTP statuses and counts
// 504s as expired. The response body for an error is only ever this
// error line; the success buffer was discarded whole.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
		s.expired.Add(1)
	case errors.Is(err, ErrUnreachable):
		status = http.StatusBadGateway
	case errors.Is(err, spectrallpm.ErrIndexClosed), errors.Is(err, ErrWarming):
		// Retries exhausted during a reload storm, or an upstream still
		// handshaking; the client should simply try again.
		status = http.StatusServiceUnavailable
	case errors.Is(err, spectrallpm.ErrDimensionMismatch),
		errors.Is(err, spectrallpm.ErrRankOutOfRange),
		errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, spectrallpm.ErrPointNotIndexed):
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	s.serveDecoded(w, r, &req, jsonType, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		var rank int
		var err error
		if u, ok := q.(Upstream); ok {
			rank, err = u.RankContext(ctx, req.Coords)
		} else {
			rank, err = q.Rank(req.Coords...)
		}
		if err != nil {
			return err
		}
		ps.Buf = AppendRankResponse(ps.Buf, rank)
		return nil
	})
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	var req PointRequest
	s.serveDecoded(w, r, &req, jsonType, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		var coords []int
		var err error
		if u, ok := q.(Upstream); ok {
			coords, err = u.PointContext(ctx, req.Rank)
		} else {
			coords, err = q.Point(req.Rank)
		}
		if err != nil {
			return err
		}
		ps.Buf = AppendPointResponse(ps.Buf, coords)
		return nil
	})
}

func (s *Server) handleBox(w http.ResponseWriter, r *http.Request) {
	var req BoxRequest
	framed := acceptsFrame(r)
	s.serveDecoded(w, r, &req, replyType(framed), func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		var at int
		if framed {
			ps.Buf, at = AppendFrameHeader(ps.Buf)
		} else {
			ps.Buf, at = AppendBoxHeader(ps.Buf)
		}
		count := 0
		err := q.ScanIntoContext(ctx, spectrallpm.Box{Start: req.Start, Dims: req.Dims},
			func(rank int, coords []int) bool {
				if framed {
					ps.Buf = AppendFrameRow(ps.Buf, rank, coords)
				} else {
					ps.Buf = AppendBoxRow(ps.Buf, count == 0, rank, coords)
				}
				count++
				return true
			})
		if framed {
			if err := framedPartial(err); err != nil {
				return err
			}
			ps.Buf = FinishFrame(ps.Buf, at, count, 1+q.D())
			return nil
		}
		missing, err := partial(err)
		if err != nil {
			return err
		}
		ps.Buf = FinishBoxResponse(ps.Buf, at, count, missing)
		return nil
	})
}

func (s *Server) handlePages(w http.ResponseWriter, r *http.Request) {
	var req BoxRequest
	s.serveDecoded(w, r, &req, jsonType, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		runs, err := q.PagesIntoContext(ctx, spectrallpm.Box{Start: req.Start, Dims: req.Dims}, ps.Runs[:0])
		ps.Runs = runs
		missing, err := partial(err)
		if err != nil {
			return err
		}
		ps.Buf = AppendPagesResponse(ps.Buf, runs, missing)
		return nil
	})
}

// handleBatch answers a batch's I/O stats as JSON or, asked for a reply
// frame, every box's page runs in one frame of width 3 (see
// appendBatchFrame). Either way the batch is all or nothing: a failed box
// fails the whole answer.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	framed := acceptsFrame(r)
	s.serveDecoded(w, r, &req, replyType(framed), func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		if len(req.Boxes) == 0 {
			return fmt.Errorf("%w: batch has no boxes", ErrBadRequest)
		}
		ps.Boxes = ps.Boxes[:0]
		for _, b := range req.Boxes {
			ps.Boxes = append(ps.Boxes, spectrallpm.Box{Start: b.Start, Dims: b.Dims})
		}
		if framed {
			return appendBatchFrame(ctx, q, ps)
		}
		stats, err := q.QueryBatchContext(ctx, ps.Boxes)
		missing, err := partial(err)
		if err != nil {
			return err
		}
		ps.Buf = AppendBatchResponse(ps.Buf, stats, missing)
		return nil
	})
}

// appendBatchFrame appends the reply frame of a batch to ps.Buf: for each
// box of ps.Boxes in request order, its page runs from PagesIntoContext,
// one row [box index, start page, pages] per run. A box without runs
// adds no row.
func appendBatchFrame(ctx context.Context, q Queryable, ps *ProtoScratch) error {
	var at int
	ps.Buf, at = AppendFrameHeader(ps.Buf)
	count := 0
	for i, b := range ps.Boxes {
		runs, err := q.PagesIntoContext(ctx, b, ps.Runs[:0])
		ps.Runs = runs
		if err := framedPartial(err); err != nil {
			return err
		}
		for _, run := range runs {
			ps.Buf = appendRunRow(ps.Buf, i, run)
		}
		count += len(runs)
	}
	ps.Buf = FinishFrame(ps.Buf, at, count, 3)
	return nil
}

// handleHealthz answers 200 {"status":"ok",...} while serving and 503
// once Shutdown has begun ("draining") or while an Upstream cannot answer
// yet ("warming"), so a router's health probe stops routing to a server
// that is mid-drain instead of racing its listener teardown.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.cur.Load()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	} else if u, ok := h.q.(Upstream); ok && !u.Ready() {
		status = "warming"
	}
	ps := GetProto()
	defer ps.Put()
	ps.Buf = append(ps.Buf, `{"status":"`...)
	ps.Buf = append(ps.Buf, status...)
	ps.Buf = append(ps.Buf, `","generation":`...)
	ps.Buf = AppendInt(ps.Buf, int(h.gen))
	ps.Buf = append(ps.Buf, `,"records":`...)
	ps.Buf = AppendInt(ps.Buf, h.q.N())
	ps.Buf = append(ps.Buf, '}')
	w.Header().Set("Content-Type", jsonType)
	if status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(ps.Buf)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	h := s.cur.Load()
	m := map[string]any{
		"generation":       h.gen,
		"records":          h.q.N(),
		"pages":            h.q.NumPages(),
		"draining":         s.draining.Load(),
		"in_flight":        s.InFlight(),
		"queued":           s.queued.Load(),
		"accepted":         s.accepted.Load(),
		"shed":             s.shed.Load(),
		"expired":          s.expired.Load(),
		"reloads":          s.reloads.Load(),
		"rejected_reloads": s.rejected.Load(),
	}
	if u, ok := h.q.(Upstream); ok {
		u.AddStats(m)
	}
	w.Header().Set("Content-Type", jsonType)
	json.NewEncoder(w).Encode(m)
}
