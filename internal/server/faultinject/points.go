// The central fault-point registry, compiled under BOTH build
// configurations (this file carries no build tag) so the tagged and
// untagged halves of the package agree on which names exist. Every
// faultinject.Fire site in the daemon, and every Arm/Disarm latch in the
// chaos tests, must use one of these names — the faultpoint analyzer
// (internal/lint) resolves the string constant at each call site and
// rejects names missing from this scope, so a typo'd latch that would
// silently never fire is a review-time diagnostic instead of a chaos test
// that proves nothing.
//
// Adding a fault point is a two-line change: declare the constant here,
// then Fire it at the site. Removing one must remove both, or faultpoint
// flags the orphaned Fire.

package faultinject

// Registered fault points, named <subsystem>.<event>. The constant value
// is the wire name the registry latches on; the constant identifier is
// what call sites should reference.
const (
	// PointHandlerAdmitted fires after a request wins bounded admission,
	// before its body is decoded — the stall point for shed/queue drills.
	PointHandlerAdmitted = "handler.admitted"
	// PointHandlerWrite fires immediately before the buffered response
	// write — the stall point for drain-loses-nothing drills.
	PointHandlerWrite = "handler.write"
	// PointReloadOpen fires at the top of Reload, before the replacement
	// file is opened — the corruption window for reload-rejection drills.
	PointReloadOpen = "reload.open"
	// PointIndexClose fires after a successful reload swap, before the
	// replaced generation's Close — the window where old borrowers drain.
	PointIndexClose = "index.close"
	// PointDrainBegin fires at the top of Shutdown, before the HTTP
	// listener stops accepting — the hook for mid-drain signal drills.
	PointDrainBegin = "drain.begin"
	// PointRouterDial fires in the cluster router immediately before each
	// per-replica HTTP attempt — the hook for connection-error and
	// slow-dial drills on the fan-out path.
	PointRouterDial = "router.dial"
	// PointRouterHedge fires when the router launches a hedged second
	// request because the first replica exceeded the hedge threshold —
	// the assertion point for first-response-wins drills.
	PointRouterHedge = "router.hedge"
	// PointWorkerReply fires once per query request a shard worker (or a
	// single daemon) answers from its own engine, after admission and
	// decode and before the engine runs; a router fires it never — the
	// stall point for kill/hang-a-worker-mid-query drills.
	PointWorkerReply = "worker.reply"
)
