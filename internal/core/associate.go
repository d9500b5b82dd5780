package core

// User association — Algorithm 1 of the paper.
//
// A newly arriving client u gathers modified beacons from every AP in range
// and associates with the AP i* maximizing the utility of Eq. 4:
//
//	U_assoc(u, i) = K_i·X^i_w,u + Σ_{j∈A_u, j≠i} (K_j − 1)·X^j_wo,u
//
// The first term is the total throughput of the cell u joins; the second is
// the total throughput of every other in-range cell once u is *not* there.
// Maximizing U therefore maximizes the aggregate network throughput impact
// of the decision — a poor client ends up grouped with similarly poor
// clients, where its long airtime does not trigger the 802.11 performance
// anomaly against fast clients, and cells of uniformly good clients stay
// eligible for channel bonding.

import (
	"runtime"
	"sort"

	"acorn/internal/wlan"
)

// AssocOptions tunes the engine-backed Algorithm 1 paths (assocstate.go,
// assocsweep.go).
type AssocOptions struct {
	// Workers is the number of goroutines a roaming sweep fans the
	// per-client beacon evaluations across. Zero or negative means
	// GOMAXPROCS; one forces the serial sweep. The resulting decisions and
	// configuration are bit-identical for every value (evaluations run
	// against a frozen round snapshot and are applied serially in stable
	// client order). Paths without an engine ignore it.
	Workers int
}

func (o AssocOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// AssociationDecision records the outcome of Algorithm 1 for one client.
type AssociationDecision struct {
	ClientID string
	// APID is the chosen AP i*; empty when no AP is in range.
	APID string
	// Utility is U_assoc(u, i*).
	Utility float64
	// Candidates lists the per-AP utilities considered, sorted by AP ID.
	Candidates []CandidateUtility
}

// CandidateUtility is one row of the association decision.
type CandidateUtility struct {
	APID    string
	Utility float64
}

// Associate runs Algorithm 1 for client u against the current configuration
// and returns the decision without mutating cfg. The caller applies the
// decision with cfg.Assoc[u.ID] = d.APID. The decision rule itself lives in
// AssociateFromBeacons — the same computation a real client runs over
// beacons decoded from the air.
func Associate(n *wlan.Network, cfg *wlan.Config, u *wlan.Client) AssociationDecision {
	d := AssociateFromBeacons(u.ID, GatherBeacons(n, cfg, u))
	sort.Slice(d.Candidates, func(a, b int) bool { return d.Candidates[a].APID < d.Candidates[b].APID })
	return d
}

// AssociateAll runs Algorithm 1 for the given clients in order, applying
// each decision before processing the next (the paper activates clients
// "randomly ... one by one"). It returns the decisions in processing order.
func AssociateAll(n *wlan.Network, cfg *wlan.Config, clients []*wlan.Client) []AssociationDecision {
	decisions := make([]AssociationDecision, 0, len(clients))
	for _, u := range clients {
		d := Associate(n, cfg, u)
		if d.APID != "" {
			cfg.SetAssoc(u.ID, d.APID)
		}
		decisions = append(decisions, d)
	}
	return decisions
}

// AssociateSticky is Associate with roaming hysteresis: the client keeps
// its incumbent AP unless some other candidate's utility beats the
// incumbent's by more than margin (fractional, e.g. 0.05 = 5%). Real
// clients do not roam for marginal or tie-valued gains — gratuitous moves
// churn the very groupings Algorithm 1 built. With an empty incumbent it
// degenerates to Associate.
func AssociateSticky(n *wlan.Network, cfg *wlan.Config, u *wlan.Client, incumbentID string, margin float64) AssociationDecision {
	return applySticky(Associate(n, cfg, u), incumbentID, margin)
}

// applySticky applies roaming hysteresis to a fresh association decision —
// the shared post-processing step of AssociateSticky and the incremental
// engine's sticky sweeps.
func applySticky(d AssociationDecision, incumbentID string, margin float64) AssociationDecision {
	if incumbentID == "" || d.APID == incumbentID {
		return d
	}
	for _, c := range d.Candidates {
		if c.APID != incumbentID {
			continue
		}
		if d.Utility <= c.Utility*(1+margin) {
			// The best alternative doesn't clear the hysteresis bar;
			// stay.
			d.APID = incumbentID
			d.Utility = c.Utility
		}
		return d
	}
	// Incumbent no longer in range: take the new best.
	return d
}
