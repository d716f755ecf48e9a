//go:build race

package cluster

// raceEnabled reports that this binary runs under the race detector, whose
// instrumentation makes sync.Pool allocate — allocation-count tests skip.
const raceEnabled = true
