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

// TestBuildViewClientsHearOnlyHome pins the invariant that lets a pass
// skip Algorithm 1: in a buildView view no client hears a foreign AP, so
// the association each AP reports is the only one the view supports. APs
// alternate between the ends of the accepted TxPower range, and reported
// SNRs run from below the association floor to far above any real link.
// A client below the floor hears nothing, which leaves its reported
// association standing too.
func TestBuildViewClientsHearOnlyHome(t *testing.T) {
	const p = 8
	snrs := []float64{-40, -4, 0, 10, 25, 40, 60, 100}
	hellos := make(map[string]Hello, p)
	reports := make(map[string]Report, p)
	for i := 0; i < p; i++ {
		id := fmt.Sprintf("AP%d", i)
		power := float64(minTxPowerDBm)
		if i%2 == 1 {
			power = maxTxPowerDBm
		}
		hellos[id] = Hello{APID: id, TxPowerDBm: power}
		rep := report(nil, snrs...)
		rep.APID = id
		reports[id] = rep
	}
	n, cfg := buildView(hellos, reports)
	floor := float64(n.AssocMinSNR)
	for _, ap := range n.APs {
		for i, snr := range snrs {
			c := n.Client(ap.ID + "/" + clientName(i))
			if home := cfg.Assoc[c.ID]; home != ap.ID {
				t.Fatalf("client %s associated to %q, want its reporting AP %s", c.ID, home, ap.ID)
			}
			in := n.APsInRange(c)
			if snr < floor {
				if len(in) != 0 {
					t.Fatalf("client %s (SNR %v, %v AP) below the floor hears %s",
						c.ID, snr, ap.TxPower, in[0].ID)
				}
				continue
			}
			if len(in) != 1 || in[0] != ap {
				ids := make([]string, len(in))
				for k, a := range in {
					ids[k] = a.ID
				}
				t.Fatalf("client %s (SNR %v, %v AP) hears %v, want only %s",
					c.ID, snr, ap.TxPower, ids, ap.ID)
			}
		}
	}
}
