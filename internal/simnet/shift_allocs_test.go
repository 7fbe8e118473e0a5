//go:build !race

package simnet

import (
	"testing"

	"repro/internal/debruijn"
)

// TestShiftRunAllocsWarm bounds the allocations of a warm shift-routed
// RunOpts (arena pooled) on the lean, bounded and sharded engines: the
// per-packet remaining-letters slab lives in the pooled arena, so O(1)
// routing adds no allocation per run. Excluded under -race, where
// sync.Pool drops pooled arenas at random.
func TestShiftRunAllocsWarm(t *testing.T) {
	const maxAllocs = 5 // the count before the remaining-letters slab existed
	g := debruijn.DeBruijn(2, 10)
	nw, err := NewNetwork(g, WithRouting(ShiftRouting))
	if err != nil {
		t.Fatal(err)
	}
	in := Fixed(Permutation(g.N(), 1))
	for _, tc := range []struct {
		name string
		opts []RunOption
	}{
		{"lean", nil},
		{"bounded", []RunOption{WithQueueCapacity(2)}},
		{"sharded", []RunOption{WithShards(2)}},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := nw.RunOpts(in, tc.opts...); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s: warm shift-routed RunOpts allocates %.1f times, want ≤ %d", tc.name, allocs, maxAllocs)
		}
	}
}
