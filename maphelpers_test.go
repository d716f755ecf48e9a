package spectrallpm_test

import (
	"context"
	"sort"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// buildMapping builds the named mapping over a grid of the given dims
// through Build and returns the index's Mapping.
func buildMapping(t testing.TB, name string, dims ...int) *spectrallpm.Mapping {
	t.Helper()
	ix, err := spectrallpm.Build(context.Background(), spectrallpm.WithGrid(dims...), spectrallpm.WithMapping(name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ix.Mapping()
}

// sortedKeys returns m's keys sorted, so table-driven loops iterate
// deterministically — Go randomizes map range order, and the maporder
// analyzer (internal/lint) keeps codec/shard/query files honest about it.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
