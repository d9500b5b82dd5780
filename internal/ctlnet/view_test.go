package ctlnet

import (
	"fmt"
	"testing"
	"time"

	"acorn/internal/obs"
)

// TestBuildViewHearAdjacency pins the measurement view's contention wiring
// on a 200-AP fleet: the reported hear-graph is symmetrized into an
// explicit adjacency (self-reports, duplicates and unknown APs dropped)
// that agrees with the report-level relation on every pair, and a full
// pass walks only its edges — GraphPairsScanned equals the hear-graph's
// edge count, not P(P−1)/2.
func TestBuildViewHearAdjacency(t *testing.T) {
	const p = 200
	id := func(i int) string { return fmt.Sprintf("AP%03d", i%p) }
	hellos := make(map[string]Hello, p)
	reports := make(map[string]Report, p)
	for i := 0; i < p; i++ {
		hellos[id(i)] = Hello{APID: id(i), TxPowerDBm: 18}
		// Clusters of four that hear each other one way round, a few
		// long links, a self-report, a duplicate and a stranger.
		hears := []string{id(i - i%4 + (i+1)%4), id(i), "ghost"}
		if i%9 == 0 {
			hears = append(hears, id(i+37), id(i+37))
		}
		rep := report(hears, 30, 18)
		rep.APID = id(i)
		reports[id(i)] = rep
	}
	// The report-level relation buildView must reproduce.
	want := make(map[[2]string]bool)
	for a, rep := range reports {
		for _, b := range rep.Hears {
			if _, known := hellos[b]; known && b != a {
				want[[2]string{a, b}] = true
				want[[2]string{b, a}] = true
			}
		}
	}
	edges := len(want) / 2

	n, cfg := buildView(hellos, reports)
	if err := n.Validate(); err != nil {
		t.Fatalf("view adjacency invalid: %v", err)
	}
	for _, a := range n.APs {
		for _, b := range n.APs {
			if got := n.Contend(a, b, cfg); got != want[[2]string{a.ID, b.ID}] {
				t.Fatalf("Contend(%s, %s) = %v, hear-graph says %v", a.ID, b.ID, got, !got)
			}
		}
	}

	s := NewServer(1)
	s.Obs = obs.NewRegistry()
	s.mu.Lock()
	for k, h := range hellos {
		s.hellos[k] = h
		s.reports[k] = storedReport{rep: reports[k], recv: time.Now()}
	}
	s.mu.Unlock()
	if _, err := s.Reallocate(); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(s.Obs, "acorn_core_graph_pairs_scanned_total"); got != uint64(edges) {
		t.Fatalf("pass scanned %d pairs, want the hear-graph's %d edges (of %d pairs)", got, edges, p*(p-1)/2)
	}
	if got := counterValue(s.Obs, "acorn_core_graph_pairs_pruned_total"); got != uint64(p*(p-1)/2-edges) {
		t.Fatalf("pass pruned %d pairs, want %d", got, p*(p-1)/2-edges)
	}
}
