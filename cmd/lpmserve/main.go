// Command lpmserve is the Spectral LPM serving daemon. It runs in three
// roles:
//
//   - single (default): map an index file built by cmd/lpm and answer
//     rank/point/box/pages/batch queries over HTTP/JSON, engineered for
//     failure first — per-request deadlines, bounded-queue load shedding,
//     hot reload on SIGHUP (a corrupt replacement is rejected while the
//     old index keeps serving), and graceful drain on SIGTERM/SIGINT.
//   - worker: the same daemon scoped to ONE shard of a sharded v2
//     container, answering in the global coordinate and rank frame and
//     exposing GET /v1/shardinfo so a router can learn the cluster
//     geometry. SIGHUP re-scopes the replacement file to the same shard.
//   - router: no index at all — the same daemon serving a static
//     replicated topology of workers: per-shard box clipping, hedged reads
//     with retries and per-replica health ejection, and shard answers
//     concatenated in rank-block order, optionally answering partial
//     results (-partial) when a shard is unreachable. -max-inflight,
//     -max-queued, -timeout and -drain apply as for the daemon, and
//     SIGHUP re-reads the topology file (a bad file is rejected while the
//     old topology keeps serving).
//
// Usage:
//
//	lpm -n 4096 -dims 64,64 -save idx.slpm
//	lpmserve -index idx.slpm -addr :8080
//	lpmserve -role worker -index sharded.slpm -shard 0 -addr :8081
//	lpmserve -role router -topology cluster.json -addr :8090 -partial -max-inflight 64
//	kill -HUP $(pidof lpmserve)   # reload: re-read the index or topology file
//	curl -s localhost:8080/v1/rank -d '{"coords":[3,5]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/spectral-lpm/spectrallpm/internal/cluster"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

func main() {
	var (
		role        = flag.String("role", "single", "single | worker | router")
		index       = flag.String("index", "", "single/worker: index file to serve (single: any format; worker: sharded v2 container)")
		addr        = flag.String("addr", "", "listen address (default :8080, router :8090)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently served requests (0 = 4×GOMAXPROCS)")
		maxQueued   = flag.Int("max-queued", 256, "max requests queued for a slot before shedding with 429")
		timeout     = flag.Duration("timeout", 0, "default per-request deadline (0 = 2s, router 5s; override per request with ?timeout_ms=)")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "cap on client-requested deadlines")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT (all roles)")
		quiet       = flag.Bool("quiet", false, "suppress operational log lines")

		// Worker role.
		shardID = flag.Int("shard", -1, "worker: which shard of the container to serve (required)")

		// Router role.
		topology       = flag.String("topology", "", "router: topology JSON file (required; re-read on SIGHUP)")
		partial        = flag.Bool("partial", false, "router: answer reachable shards + shards_missing instead of failing when a shard is down")
		hedgeAfter     = flag.Duration("hedge-after", 50*time.Millisecond, "router: latency threshold before racing a hedged second replica")
		attemptTimeout = flag.Duration("attempt-timeout", time.Second, "router: per-replica attempt budget")
		retries        = flag.Int("retries", 2, "router: extra attempts after a failed one, each against the next replica")
		failThreshold  = flag.Int("fail-threshold", 3, "router: consecutive failures before a replica is ejected")
		probeInterval  = flag.Duration("probe-interval", 500*time.Millisecond, "router: health-probe cadence for ejected replicas")
	)
	flag.Parse()
	cfg := server.Config{
		IndexPath:      *index,
		Addr:           orDefault(*addr, ":8080"),
		MaxInFlight:    *maxInFlight,
		MaxQueued:      *maxQueued,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drain,
	}
	if *quiet {
		cfg.Logf = func(string, ...any) {}
	}
	switch *role {
	case "single":
		if *index == "" {
			usage("-index is required")
		}
	case "worker":
		if *index == "" || *shardID < 0 {
			usage("-role worker requires -index and -shard")
		}
		sh := *shardID
		cfg.Open = func(path string) (server.Queryable, error) {
			return cluster.OpenShardWorker(path, sh)
		}
		cfg.Routes = cluster.WorkerRoutes
	case "router":
		if *topology == "" {
			usage("-role router requires -topology")
		}
		if *retries == 0 {
			*retries = -1 // explicit zero: RouterConfig treats negatives as "no retries"
		}
		cfg.IndexPath = *topology
		cfg.Addr = orDefault(*addr, ":8090")
		if cfg.DefaultTimeout <= 0 {
			cfg.DefaultTimeout = cluster.DefaultTimeout
		}
		cfg.Open = cluster.RouterConfig{
			Partial:        *partial,
			AttemptTimeout: *attemptTimeout,
			HedgeAfter:     *hedgeAfter,
			Retries:        *retries,
			FailThreshold:  *failThreshold,
			ProbeInterval:  *probeInterval,
			Logf:           cfg.Logf,
		}.Open
	default:
		usage(fmt.Sprintf("unknown role %q (want single, worker, or router)", *role))
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	//lpm:ctxok — process root: there is no caller context above main
	if err := s.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "lpmserve:", err)
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "lpmserve:", msg)
	flag.Usage()
	os.Exit(2)
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}
