package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/cluster"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// Latency limits for goodput_rps: a request counts as good when it
// succeeds within its workload's limit.
const (
	daemonLimit  = 5 * time.Millisecond
	clusterLimit = 50 * time.Millisecond
	ingestLimit  = 5 * time.Millisecond
)

// windowLen is the length of the windows a measured load phase is cut
// into; the request metrics are medians over the windows.
const windowLen = 2 * time.Second

func nopLogf(string, ...any) {}

// listener is one HTTP server on a loopback socket.
type listener struct {
	hs   *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to return.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if l.hs.Shutdown(ctx) != nil {
		l.hs.Close()
	}
	<-l.done
}

// fleet is a running serving topology: one daemon, or a router over shard
// workers. front is the address clients send to.
type fleet struct {
	servers  []*server.Server
	lns      []*listener // one per server, then the router's
	router   *cluster.Router
	front    string
	file     string
	views    []server.Queryable // the served Queryables, undecorated
	sharded  *spectrallpm.ShardedIndex
	fileSize int64
}

func (f *fleet) close() {
	for i := len(f.lns) - 1; i >= 0; i-- {
		f.lns[i].close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.router != nil {
		f.router.Shutdown(ctx)
	}
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
	os.Remove(f.file)
}

// recycleUpstream closes the router's idle connections to its workers,
// so the next window dials them afresh. It is called between windows,
// when no request is in flight, and waits briefly for the router's
// transport to see the closes.
func (f *fleet) recycleUpstream() {
	if f.router == nil {
		return
	}
	for _, l := range f.lns[:len(f.lns)-1] {
		l.hs.SetKeepAlivesEnabled(false)
		l.hs.SetKeepAlivesEnabled(true)
	}
	time.Sleep(20 * time.Millisecond)
}

// setupTimes are one set-up's phase times. write and open are reported
// by the traced run only.
type setupTimes struct {
	total, build, write, open time.Duration
}

// writeFile creates path and writes it through a buffer with write,
// returning the bytes written.
func writeFile(path string, write func(bw *bufio.Writer) (int64, error)) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// setupDaemon builds the grid, writes it as v2, opens it in a
// server.Server and listens on loopback. It returns the fleet and the
// in-memory index the file was written from.
func setupDaemon(ctx context.Context, opt options, tr *tracer, rep int) (*fleet, server.Queryable, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	ix, err := spectrallpm.Build(ctx, spectrallpm.WithGrid(opt.size.side, opt.size.side))
	if err != nil {
		return nil, nil, ts, err
	}
	ts.build = time.Since(t0)
	f := &fleet{file: filepath.Join(opt.workDir, fmt.Sprintf("daemon-%d.lpm2", rep))}
	t1 := time.Now()
	f.fileSize, err = writeFile(f.file, func(bw *bufio.Writer) (int64, error) { return ix.WriteToV2(bw) })
	if err != nil {
		return nil, nil, ts, err
	}
	ts.write = time.Since(t1)
	t2 := time.Now()
	srv, err := server.New(server.Config{
		IndexPath: f.file,
		Logf:      nopLogf,
		Open: func(path string) (server.Queryable, error) {
			q, err := server.Open(path)
			if err != nil {
				return nil, err
			}
			f.views = append(f.views, q)
			return tr.wrapQ(q), nil
		},
	})
	if err != nil {
		return nil, nil, ts, err
	}
	ts.open = time.Since(t2)
	f.servers = append(f.servers, srv)
	ln, err := listen(tr.wrapHandler(srv.Handler(), spanTop))
	if err != nil {
		f.close()
		return nil, nil, ts, err
	}
	f.lns = append(f.lns, ln)
	f.front = ln.addr
	ts.total = time.Since(t0)
	return f, ix, ts, nil
}

// setupCluster builds the sharded grid, writes the container, opens one
// worker server per shard, starts the router and completes its geometry
// handshake with the workers.
func setupCluster(ctx context.Context, opt options, tr *tracer, rep int) (*fleet, server.Queryable, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	sx, err := spectrallpm.BuildSharded(ctx, opt.size.shards, spectrallpm.WithGrid(opt.size.side, opt.size.side))
	if err != nil {
		return nil, nil, ts, err
	}
	ts.build = time.Since(t0)
	f := &fleet{file: filepath.Join(opt.workDir, fmt.Sprintf("cluster-%d.lpm2", rep)), sharded: sx}
	t1 := time.Now()
	f.fileSize, err = writeFile(f.file, func(bw *bufio.Writer) (int64, error) { return sx.WriteToV2(bw) })
	if err != nil {
		return nil, nil, ts, err
	}
	ts.write = time.Since(t1)
	topo := &cluster.Topology{}
	for i := 0; i < opt.size.shards; i++ {
		t2 := time.Now()
		srv, err := newWorker(f, i, tr)
		if err != nil {
			f.close()
			return nil, nil, ts, err
		}
		ts.open += time.Since(t2)
		f.servers = append(f.servers, srv)
		ln, err := listen(tr.wrapHandler(srv.Handler(), spanWorker))
		if err != nil {
			f.close()
			return nil, nil, ts, err
		}
		f.lns = append(f.lns, ln)
		topo.Shards = append(topo.Shards, cluster.ShardReplicas{Shard: i, Replicas: []string{ln.addr}})
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Topology: topo, Logf: nopLogf})
	if err != nil {
		f.close()
		return nil, nil, ts, err
	}
	f.router = rt
	ln, err := listen(tr.wrapHandler(rt.Handler(), spanTop))
	if err != nil {
		f.close()
		return nil, nil, ts, err
	}
	f.lns = append(f.lns, ln)
	f.front = ln.addr
	for i := 0; !rt.Ready(); i++ {
		if i == 100 {
			f.close()
			return nil, nil, ts, errors.New("router geometry handshake did not complete")
		}
		rt.ProbeOnce(ctx)
	}
	ts.total = time.Since(t0)
	return f, sx, ts, nil
}

// newWorker opens shard i of the fleet's container in a worker server.
// With tracing, the served Queryable is decorated; /v1/shardinfo then
// answers from a second server over the undecorated shard view, because
// the handshake handler needs the concrete worker type.
func newWorker(f *fleet, i int, tr *tracer) (*server.Server, error) {
	var view server.Queryable
	cfg := server.Config{
		IndexPath: f.file,
		Logf:      nopLogf,
		Open: func(path string) (server.Queryable, error) {
			q, err := cluster.OpenShardWorker(path, i)
			if err != nil {
				return nil, err
			}
			view = q
			f.views = append(f.views, q)
			return tr.wrapQ(q), nil
		},
		Routes: cluster.WorkerRoutes,
	}
	if tr != nil {
		cfg.Routes = func(_ *server.Server, mux *http.ServeMux) {
			info, err := server.New(server.Config{
				IndexPath: f.file,
				Logf:      nopLogf,
				Open:      func(string) (server.Queryable, error) { return view, nil },
			})
			if err == nil {
				cluster.WorkerRoutes(info, mux)
			}
		}
	}
	return server.New(cfg)
}

// runServing runs daemon-mixed or cluster-scan.
func runServing(opt options) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	setup, m, limit := setupDaemon, daemonMix, daemonLimit
	if opt.workload == "cluster-scan" {
		setup, m, limit = setupCluster, clusterMix, clusterLimit
	}
	if opt.trace {
		return runServingTraced(ctx, opt, rep, setup, m)
	}

	// build_points_s is every workload's point-set build time; the serving
	// workloads build the disk once, before anything listens.
	pts := disk(opt.size.radius, 0, 0)
	t0 := time.Now()
	if _, err := spectrallpm.Build(ctx, spectrallpm.WithPoints(pts)); err != nil {
		return nil, err
	}
	rep.set("build_points_s", "s", time.Since(t0).Seconds())

	var (
		f      *fleet
		built  server.Queryable
		phases []setupTimes
	)
	for i := 0; i < opt.size.setupReps; i++ {
		if f != nil {
			f.close()
		}
		var ts setupTimes
		var err error
		f, built, ts, err = setup(ctx, opt, nil, i)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		phases = append(phases, ts)
	}
	defer f.close()
	setupMetrics(rep, phases, f)

	var cut cuts
	if f.sharded != nil {
		cut = cutsOf(f.sharded)
	}
	reqs := generate(opt.seed, opt.size.requests, opt.size.side, opt.size.batch, m, cut)
	if err := oracle(built, reqs); err != nil {
		return nil, err
	}
	built = nil
	rep.notef("%s: %d records, file %d bytes, requests: %s", opt.workload, opt.size.side*opt.size.side, f.fileSize, opCounts(reqs))
	if f.sharded != nil {
		rep.notef("cluster-scan: %.3f of boxes touch more than one shard", crossShare(f.sharded, reqs))
		f.sharded = nil
	}

	// The measured phase is cut into windows, each with fresh connections
	// (the router's to its workers too), so one run does not ride on one
	// placement of its connections' goroutines; the request metrics are
	// medians over the windows. The set-up's garbage is collected and
	// returned first, so the scavenger does not run during the windows.
	debug.FreeOSMemory()
	warm := loadWindow(f.front, opt.size.clients, time.Second, 0, reqs)
	rep.count(warm.attempted, warm.failed)
	st := &loadStats{}
	windows := int(max(secondsDur(opt.seconds)/windowLen, 1))
	for k := 0; k < windows; k++ {
		f.recycleUpstream()
		st.merge(loadWindow(f.front, opt.size.clients, secondsDur(opt.seconds)/time.Duration(windows), k*len(reqs)/windows, reqs))
	}
	rep.count(st.attempted, st.failed)
	serveMetrics(rep, st, limit)
	return rep, nil
}

// setupMetrics reports the medians of the set-up phases.
func setupMetrics(rep *report, phases []setupTimes, f *fleet) {
	pick := func(get func(setupTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(phases))
		for i, p := range phases {
			ds[i] = get(p)
		}
		return medianDur(ds)
	}
	rep.set("setup_s", "s", pick(func(p setupTimes) time.Duration { return p.total }).Seconds())
	rep.set("build_grid_s", "s", pick(func(p setupTimes) time.Duration { return p.build }).Seconds())
	records := float64(0)
	for _, v := range f.views {
		records += float64(v.N())
	}
	rep.set("bytes_per_record", "B", float64(f.fileSize)/records)
}

// loadWindow runs one closed-loop window with fresh connections.
func loadWindow(addr string, clients int, d time.Duration, start int, reqs []*request) *loadStats {
	cs := make([]*httpClient, clients)
	for i := range cs {
		cs[i] = newHTTPClient(addr)
		defer cs[i].close()
	}
	return closedLoop(clients, d, 0, start, reqs, func(w int, r *request) error { return cs[w].send(r) })
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
