package core

// The benchmark pair behind BENCH_build.json: the static contention-graph
// build over the same 2000-AP campus as BENCH_shard (40 buildings of 50
// APs, kilometers apart), once through the uniform-grid spatial index (AP
// candidate queries at the carrier-sense cutoff radius) and once through
// the exact O(P²) pair scan. The two paths produce bit-identical neighbor
// sets and components by construction — pinned by the spatial equivalence
// suite — so the derived build_speedup_2000ap ratio prices the index alone.

import "testing"

func benchGraphBuild(b *testing.B, opts AllocOptions) {
	n, cfg := multiBuildingSetup(b, 40, 50, 2, 77, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var g *conflictGraph
	for i := 0; i < b.N; i++ {
		g = buildConflictGraph(n, cfg, 1, opts)
	}
	b.StopTimer()
	if opts.noSpatialIndex == g.spatial {
		b.Fatalf("spatial=%v with noSpatialIndex=%v: wrong build path ran",
			g.spatial, opts.noSpatialIndex)
	}
	b.ReportMetric(float64(g.pairsScanned), "pairs_scanned")
	b.ReportMetric(float64(g.pairsPruned), "pairs_pruned")
	b.ReportMetric(float64(len(g.comps)), "components")
}

// BenchmarkGraphBuildIndexed2000AP builds the campus contention graph
// through the spatial index (the default path).
func BenchmarkGraphBuildIndexed2000AP(b *testing.B) {
	benchGraphBuild(b, AllocOptions{})
}

// BenchmarkGraphBuildFullScan2000AP builds the same graph through the
// exact all-pairs scan — the pre-index baseline the speedup is measured
// against.
func BenchmarkGraphBuildFullScan2000AP(b *testing.B) {
	benchGraphBuild(b, AllocOptions{noSpatialIndex: true})
}
