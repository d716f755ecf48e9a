// Per-replica health: the router tracks every worker replica with two
// atomics — a consecutive-failure counter and an ejected flag — so the
// serving hot path reads health without locks. Ejection is demand-driven
// (failures observed by real requests), reinstatement is probe-driven
// (a background GET /healthz), which gives the classic asymmetry a
// load balancer wants: a replica falls out of rotation the moment it
// costs requests, and comes back only once it proves healthy without
// risking live traffic to find out.
package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"
)

// replica is one worker address plus its health state.
type replica struct {
	addr string
	// fails counts consecutive failed attempts; any success zeroes it.
	fails atomic.Int32
	// ejected marks the replica out of rotation; the prober owns the
	// transition back.
	ejected atomic.Bool
}

// fail records one failed attempt, ejecting the replica when it crosses
// the consecutive-failure threshold.
func (rep *replica) fail(r *Remote) {
	if int(rep.fails.Add(1)) >= r.cfg.FailThreshold {
		if rep.ejected.CompareAndSwap(false, true) {
			r.ejections.Add(1)
			r.cfg.Logf("replica %s ejected after %d consecutive failures", rep.addr, r.cfg.FailThreshold)
		}
	}
}

// succeed records one successful attempt, clearing the failure streak and
// reinstating an ejected replica (a success is as good as a probe).
func (rep *replica) succeed(r *Remote) {
	rep.fails.Store(0)
	if rep.ejected.CompareAndSwap(true, false) {
		r.reinstatements.Add(1)
		r.cfg.Logf("replica %s reinstated", rep.addr)
	}
}

// shardState is one shard's replica set plus a rotation counter so
// consecutive requests spread across healthy replicas.
type shardState struct {
	id       int
	replicas []*replica
	rr       atomic.Uint64
}

// order returns the replicas to try, healthy ones first (rotated so load
// spreads), then ejected ones as a last resort — when every replica of a
// shard is ejected the router still tries rather than failing without a
// single packet sent.
func (ss *shardState) order(dst []*replica) []*replica {
	n := len(ss.replicas)
	start := int(ss.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		if rep := ss.replicas[(start+i)%n]; !rep.ejected.Load() {
			dst = append(dst, rep)
		}
	}
	for i := 0; i < n; i++ {
		if rep := ss.replicas[(start+i)%n]; rep.ejected.Load() {
			dst = append(dst, rep)
		}
	}
	return dst
}

// ProbeOnce runs one probe round: finish the geometry handshake if it is
// still incomplete, then probe every ejected replica's GET /healthz and
// reinstate the ones that answer 200. A draining worker answers 503
// there, so a replica mid-teardown stays ejected instead of flapping.
func (r *Remote) ProbeOnce(ctx context.Context) {
	r.geometry(ctx) // finishes the handshake if it is still incomplete
	for _, ss := range r.shards {
		for _, rep := range ss.replicas {
			if !rep.ejected.Load() {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
			rp, err := r.do(pctx, rep, call{path: "/healthz"})
			cancel()
			if err == nil {
				if rp.status == http.StatusOK {
					rep.succeed(r)
				}
				rp.Release()
			}
		}
	}
}

// probeLoop runs ProbeOnce every ProbeInterval until ctx is canceled
// (Close), then signals probesDone.
func (r *Remote) probeLoop(ctx context.Context) {
	defer close(r.probesDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.ProbeOnce(ctx)
		}
	}
}
