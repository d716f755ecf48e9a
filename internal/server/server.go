// Package server is the serving shell behind every cmd/lpmserve role: an
// HTTP/JSON front end over a Queryable — a mapped (or materialized)
// index, one shard of a sharded container (a cluster worker), or a
// cluster router's fan-out (which also implements Upstream) — engineered
// for failure first. Every request passes bounded-queue admission (load
// shedding with 429 + Retry-After), carries a per-request deadline that
// threads as a context into the query engines (expired requests answer 504
// without touching pooled engine scratch and never write a partial body),
// and serves from an atomically swappable index handle — SIGHUP reloads
// the index file with zero downtime, a corrupt replacement is rejected
// while the old index keeps serving, and SIGTERM drains gracefully: stop
// accepting, finish in-flight work within a drain budget, and unmap only
// after the last borrower releases (the Lifecycle refcount in
// internal/serve).
//
// The handler core is transport-shaped, not HTTP-shaped: requests decode
// into plain argument structs and responses are appended to a pooled byte
// buffer by the protocol layer (protocol.go), written in a single Write.
// A compact binary protocol can bolt onto the same core by swapping the
// encode/decode pair without touching admission, deadlines, reload, or
// drain.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
)

// Queryable is the serving surface the daemon needs from an index — both
// *spectrallpm.Index and *spectrallpm.ShardedIndex satisfy it. Close must
// be safe against in-flight queries (the mapped paths reference-count
// borrows and wait), and the context variants must observe cancellation.
type Queryable interface {
	N() int
	D() int
	Dims() []int
	RecordsPerPage() int
	NumPages() int
	Rank(coords ...int) (int, error)
	Point(rank int) ([]int, error)
	ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(rank int, coords []int) bool) error
	PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error)
	QueryIOContext(ctx context.Context, b spectrallpm.Box) (spectrallpm.IOStats, error)
	QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error)
	Close() error
}

// magicShardedV2 mirrors the sharded container magic so the loader can
// sniff which opener a file needs without exporting codec internals.
const magicShardedV2 = "SLPMSX2\n"

// Open loads an index file in whichever format it carries: sharded v2
// containers open via OpenMappedSharded, everything else via OpenIndex
// (mapped v2 single indexes, or the v1 JSON fallback).
func Open(path string) (Queryable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [8]byte
	n, _ := io.ReadFull(f, magic[:])
	f.Close()
	if string(magic[:n]) == magicShardedV2 {
		return spectrallpm.OpenMappedSharded(path)
	}
	return spectrallpm.OpenIndex(path)
}

// Config carries the daemon's tunables. The zero value of any field picks
// the default documented on it.
type Config struct {
	// IndexPath is the file served and re-opened on reload: an index file,
	// or whatever Open reads (a router's topology file).
	IndexPath string
	// Addr is the listen address (default ":8080").
	Addr string
	// MaxInFlight bounds concurrently admitted requests (default 4 ×
	// GOMAXPROCS). Beyond it requests queue.
	MaxInFlight int
	// MaxQueued bounds requests waiting for an in-flight slot (default
	// 256). Beyond it requests shed with 429 + Retry-After.
	MaxQueued int
	// DefaultTimeout is the per-request deadline when the client sends no
	// timeout_ms query parameter (default 2s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested deadline (default 30s).
	MaxTimeout time.Duration
	// DrainTimeout bounds how long Shutdown waits for in-flight requests
	// (default 10s); connections still open after it are severed.
	DrainTimeout time.Duration
	// RetryAfter is the base Retry-After hint on shed responses (default
	// 1s); each shed response jitters it ±50% by its shed slot so
	// synchronized clients don't retry in lockstep.
	RetryAfter time.Duration
	// Logf receives operational log lines (default log to stderr via
	// fmt.Fprintf; set to a no-op to silence).
	Logf func(format string, args ...any)
	// Open overrides how IndexPath becomes a Queryable (default Open).
	// Reload uses the same opener, so a worker daemon scoped to one shard
	// of a sharded container re-scopes on every hot reload too.
	Open func(path string) (Queryable, error)
	// Routes, when set, registers extra endpoints on the daemon's mux —
	// the hook cluster workers use to expose GET /v1/shardinfo without the
	// core daemon knowing about sharding.
	Routes func(s *Server, mux *http.ServeMux)
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lpmserve: "+format+"\n", args...)
		}
	}
}

// indexHandle is one immutable generation of the served index. Handlers
// load the current handle once per attempt; Reload swaps in a fresh one
// and closes the old, which blocks until its last borrower releases.
type indexHandle struct {
	q    Queryable
	path string
	gen  uint64
}

// Server is the daemon: an index handle behind an atomic pointer, bounded
// admission, and the HTTP front end. Create with New, serve with Run (or
// wire Handler into a test server), reload with Reload, stop with
// Shutdown.
type Server struct {
	cfg Config
	cur atomic.Pointer[indexHandle]

	// Admission: slots is the in-flight bound (send = admit, receive =
	// release); queued counts requests waiting for a slot so the queue
	// stays bounded without a second channel.
	slots  chan struct{}
	queued atomic.Int64

	reloadMu sync.Mutex  // serializes Reload; queries never take it
	draining atomic.Bool // set at Shutdown; /healthz answers 503 from then on

	// Counters for /stats (monotonic; read with atomic loads).
	accepted atomic.Int64 // requests admitted past the queue
	shed     atomic.Int64 // 429s
	expired  atomic.Int64 // 504s (deadline before or during the query)
	reloads  atomic.Int64 // successful reloads
	rejected atomic.Int64 // reloads rejected (old index kept serving)

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener
}

// New opens the configured index and assembles the daemon. The returned
// server is not listening yet: call Run (daemon), or use Handler with a
// test server.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	open := cfg.Open
	if open == nil {
		open = Open
	}
	q, err := open(cfg.IndexPath)
	if err != nil {
		return nil, fmt.Errorf("lpmserve: open %s: %w", cfg.IndexPath, err)
	}
	s := &Server{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
	s.cur.Store(&indexHandle{q: q, path: cfg.IndexPath, gen: 1})
	s.mux = http.NewServeMux()
	s.routes()
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler returns the daemon's HTTP handler — the full serving surface
// including admission and deadlines — for tests and benchmarks that bring
// their own listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Index returns the currently served index handle's Queryable. The handle
// may be swapped by a concurrent Reload the moment this returns; serving
// paths instead load per attempt and retry on ErrIndexClosed.
func (s *Server) Index() Queryable { return s.cur.Load().q }

// Generation returns the monotonically increasing index generation (1 for
// the initially opened index, +1 per successful reload).
func (s *Server) Generation() uint64 { return s.cur.Load().gen }

// Reload re-opens the index file and atomically swaps it in. The swap is
// torn-mix-free by construction: every request answers wholly from the
// handle it loaded (retrying on ErrIndexClosed re-loads the pointer and
// answers wholly from the replacement). A file that fails to open or
// validate — corrupt, truncated, version-mismatched — is rejected and the
// old index keeps serving, untouched. On success the old mapping is closed
// synchronously: Close waits for the old handle's last borrower, which is
// bounded because new arrivals already load the new handle.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.cur.Load()
	faultinject.Fire(faultinject.PointReloadOpen)
	open := s.cfg.Open
	if open == nil {
		open = Open
	}
	q, err := open(s.cfg.IndexPath)
	if err != nil {
		s.rejected.Add(1)
		s.cfg.Logf("reload rejected, keeping generation %d: %v", old.gen, err)
		return fmt.Errorf("lpmserve: reload %s: %w", s.cfg.IndexPath, err)
	}
	s.cur.Store(&indexHandle{q: q, path: s.cfg.IndexPath, gen: old.gen + 1})
	s.reloads.Add(1)
	faultinject.Fire(faultinject.PointIndexClose)
	if err := old.q.Close(); err != nil {
		// The new index is already serving; a failed unmap leaks the old
		// region but corrupts nothing. Surface it, don't fail the reload.
		s.cfg.Logf("close of replaced index (generation %d): %v", old.gen, err)
	}
	s.cfg.Logf("reloaded %s: generation %d, %d records", s.cfg.IndexPath, old.gen+1, q.N())
	return nil
}

// Shutdown drains the daemon: stop accepting, let in-flight requests
// finish within ctx's budget (connections still open after it are
// severed), then close the index — which itself waits for the last
// borrower of the mapped region before unmapping. Safe to call more than
// once; concurrent calls all wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	// Flip the health signal first: probes see "draining" (503) before the
	// listener stops accepting, so routers eject this worker ahead of the
	// connection errors its teardown would otherwise surface.
	s.draining.Store(true)
	faultinject.Fire(faultinject.PointDrainBegin)
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Drain budget exceeded: sever what remains. Stuck handlers get
		// write errors; engine borrows still drain (engine work is finite),
		// so the Close below cannot hang on them.
		s.http.Close()
	}
	if closeErr := s.cur.Load().q.Close(); err == nil {
		err = closeErr
	}
	return err
}

// Run listens on the configured address and serves until SIGTERM/SIGINT
// (graceful drain, then returns the drain result) or ctx cancellation
// (same drain). SIGHUP triggers Reload; a rejected reload is logged and
// serving continues on the old index. Further SIGTERMs during a drain are
// ignored — accepted requests are never abandoned early.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.cfg.Logf("serving %s (generation %d, %d records) on %s",
		s.cfg.IndexPath, s.Generation(), s.Index().N(), ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.http.Serve(ln) }()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt, syscall.SIGHUP)
	defer signal.Stop(sig)
	for {
		select {
		case err := <-serveErr:
			// The listener failed on its own; nothing to drain.
			s.cur.Load().q.Close()
			return err
		case <-ctx.Done():
			return s.drainAndWait(serveErr)
		case sg := <-sig:
			if sg == syscall.SIGHUP {
				s.Reload() // rejection already logged; old index serves on
				continue
			}
			s.cfg.Logf("%v: draining (budget %v)", sg, s.cfg.DrainTimeout)
			return s.drainAndWait(serveErr)
		}
	}
}

// Addr returns the bound listen address once Run has started listening.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) drainAndWait(serveErr chan error) error {
	//lpm:ctxok — the drain deadline must outlive every request context being drained
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.Shutdown(dctx)
	<-serveErr // http.Serve has returned ErrServerClosed
	if err != nil {
		return err
	}
	s.cfg.Logf("drained cleanly")
	return nil
}

// maxClosedRetries bounds the ErrIndexClosed retry loop. One retry
// suffices for a single racing reload; the headroom covers a reload storm
// without risking an unbounded loop if Close semantics ever regress.
const maxClosedRetries = 8

// withIndex runs fn against the current index handle, retrying against the
// freshly loaded handle when the one it raced with was closed by a
// concurrent reload. Each attempt answers wholly from one handle, so no
// response can mix generations.
func (s *Server) withIndex(fn func(q Queryable) error) error {
	for attempt := 0; ; attempt++ {
		err := fn(s.cur.Load().q)
		if err == nil || attempt >= maxClosedRetries || !errors.Is(err, spectrallpm.ErrIndexClosed) {
			return err
		}
	}
}

// admit passes a request through bounded-queue admission. It returns
// (release, 0, 0) on success — the caller must call release exactly once
// — or (nil, status, slot) where status is 429 (queue full, shed; slot is
// the request's position in the shed sequence, the seed for the jittered
// Retry-After) or 504 (the request's deadline expired while queued).
func (s *Server) admit(ctx context.Context) (release func(), status int, slot int64) {
	select {
	case s.slots <- struct{}{}:
		s.accepted.Add(1)
		return s.releaseSlot, 0, 0
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueued) {
		s.queued.Add(-1)
		return nil, http.StatusTooManyRequests, s.shed.Add(1)
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		s.accepted.Add(1)
		return s.releaseSlot, 0, 0
	case <-ctx.Done():
		s.expired.Add(1)
		return nil, http.StatusGatewayTimeout, 0
	}
}

func (s *Server) releaseSlot() { <-s.slots }

// InFlight returns the number of currently admitted requests.
func (s *Server) InFlight() int { return len(s.slots) }
