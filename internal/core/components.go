package core

// Connected-component decomposition of the AP contention graph, and the
// component-sharded Algorithm-2 solver built on it (DESIGN.md §13).
//
// Contention is channel-independent and static during one run, so the
// populated cells split into connected components of the contention graph —
// independent sub-WLANs that share no term of the objective: a cell's M
// depends only on its contending neighbors, its k and ATD only on its own
// members. A candidate move inside one component cannot change any other
// component's cells, so Algorithm 2 decomposes into per-component searches
// (the structure Faridi et al.'s interference-network analysis predicts for
// dense deployments, and what a multi-building campus looks like in
// practice).
//
// The sharded solver exploits that: each component becomes a self-contained
// subproblem (its APs, their clients, the same band) solved by the ordinary
// incremental engine on its own worker, and the results are merged serially
// in component order. Determinism is structural — components are
// discovered in AP order, subproblems are independent by construction, and
// the merge folds their statistics in a fixed order — so the output is
// bit-identical for every worker count, and each subproblem is bit-exact
// against the generic oracle run on the same subproblem (the engine's
// standing invariant).
//
// Sharding is a different search than the whole-network solve, not a faster
// encoding of it: the ε stopping rule and the switch budget apply per
// component (a converged campus cannot keep a distant building iterating,
// and vice versa), and estimates in the merged statistics cover the solved
// components. On near-degenerate float ties the per-component argmax can
// also pick a different winner than the global-sum argmax (adding a large
// cross-component constant to both sides of a comparison can absorb a
// one-ULP difference). Both are deliberate; the equivalence suite therefore
// pins the sharded path against per-component oracles, not the global one.

import (
	"sync"
	"time"

	"acorn/internal/wlan"
)

// contentionComponents returns the connected components of the populated
// contention graph: each component is an ascending slice of AP indices, and
// components are ordered by their smallest member. neighbors is the
// adjacency restricted to populated cells (allocState.neighbors); popIdx
// lists the populated AP indices ascending.
func contentionComponents(neighbors [][]int32, popIdx []int) [][]int32 {
	seen := make(map[int]bool, len(popIdx))
	var comps [][]int32
	var stack []int32
	for _, start := range popIdx {
		if seen[start] {
			continue
		}
		comp := []int32{}
		stack = append(stack[:0], int32(start))
		seen[start] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, i)
			for _, j := range neighbors[i] {
				if !seen[int(j)] {
					seen[int(j)] = true
					stack = append(stack, j)
				}
			}
		}
		sortInt32s(comp)
		comps = append(comps, comp)
	}
	return comps
}

func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// conflictGraph is the standalone contention-graph build the sharded solver
// uses: the same predicate as allocState (contendPair restricted to the two
// cells' clients), but without the delay tables — the subproblem states
// compute those for their own members only. The pair scan is fanned across
// workers; verdicts are pure and land in per-pair slots, so the graph is
// identical for any worker count.
type conflictGraph struct {
	apIdx     map[string]int
	populated []int
	popIdx    []int
	clientsOf [][]*wlan.Client
	neighbors [][]int32
	comps     [][]int32

	// pairsScanned/pairsPruned/spatial mirror allocState's build stats.
	pairsScanned int
	pairsPruned  int
	spatial      bool
}

func buildConflictGraph(n *wlan.Network, cfg *wlan.Config, workers int, opts AllocOptions) *conflictGraph {
	g := &conflictGraph{
		apIdx:     make(map[string]int, len(n.APs)),
		populated: make([]int, len(n.APs)),
		clientsOf: clientsByHome(n, cfg),
		neighbors: make([][]int32, len(n.APs)),
	}
	for i, ap := range n.APs {
		g.apIdx[ap.ID] = i
	}
	for _, apID := range cfg.Assoc {
		if i, ok := g.apIdx[apID]; ok {
			g.populated[i]++
		}
	}
	for i := range g.populated {
		if g.populated[i] > 0 {
			g.popIdx = append(g.popIdx, i)
		}
	}

	// An explicit contention adjacency is the graph itself: no pairs to
	// scan.
	if n.ContendAdj != nil {
		edges := adjacencyNeighbors(n, g.popIdx, g.populated, g.neighbors)
		g.pairsScanned = edges
		g.pairsPruned = totalPairs(len(g.popIdx)) - edges
		g.comps = contentionComponents(g.neighbors, g.popIdx)
		return g
	}

	// Pair scan: candidate pairs (a < b), chunked by row across workers.
	// st.contendPair needs only the fields mirrored here, so a throwaway
	// allocState shell carries them. With a sound cutoff the rows hold the
	// spatial candidates; otherwise row a covers popIdx[a+1:] — either way
	// verdicts are pure and land in per-pair slots, so the graph is
	// identical for any worker count, with or without the index.
	shell := &allocState{n: n}
	p := len(g.popIdx)
	rows, scanned, spatial := spatialCandidates(n, g.popIdx, g.clientsOf, opts)
	g.spatial = spatial
	if spatial {
		g.pairsScanned = scanned
		g.pairsPruned = totalPairs(p) - scanned
	} else {
		g.pairsScanned = totalPairs(p)
	}
	verdicts := make([][]bool, p)
	if workers > p {
		workers = p
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var next int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				a := int(next)
				next++
				mu.Unlock()
				if a >= p {
					return
				}
				i := g.popIdx[a]
				if spatial {
					row := make([]bool, len(rows[a]))
					for k, j32 := range rows[a] {
						row[k] = shell.contendPair(i, int(j32), g.clientsOf)
					}
					verdicts[a] = row
				} else {
					row := make([]bool, p-a-1)
					for k := range row {
						j := g.popIdx[a+1+k]
						row[k] = shell.contendPair(i, j, g.clientsOf)
					}
					verdicts[a] = row
				}
			}
		}()
	}
	wg.Wait()
	for a := 0; a < p; a++ {
		i := g.popIdx[a]
		for k, hit := range verdicts[a] {
			if hit {
				j := g.popIdx[a+1+k]
				if spatial {
					j = int(rows[a][k])
				}
				g.neighbors[i] = append(g.neighbors[i], int32(j))
				g.neighbors[j] = append(g.neighbors[j], int32(i))
			}
		}
	}
	for i := range g.neighbors {
		sortInt32s(g.neighbors[i])
	}
	g.comps = contentionComponents(g.neighbors, g.popIdx)
	return g
}

// clientsByHome buckets the network's clients by their home AP index, in
// n.Clients order — the association snapshot both the graph build and the
// subproblem extraction walk.
func clientsByHome(n *wlan.Network, cfg *wlan.Config) [][]*wlan.Client {
	apIdx := make(map[string]int, len(n.APs))
	for i, ap := range n.APs {
		apIdx[ap.ID] = i
	}
	clientsOf := make([][]*wlan.Client, len(n.APs))
	for _, c := range n.Clients {
		if home, ok := apIdx[cfg.Assoc[c.ID]]; ok {
			clientsOf[home] = append(clientsOf[home], c)
		}
	}
	return clientsOf
}

// shardResult is one component's solved subproblem.
type shardResult struct {
	comp     []int32
	cfg      *wlan.Config
	stats    AllocStats
	duration time.Duration
}

// allocateSharded runs Algorithm 2 per contention component on
// opts.ShardWorkers workers and merges the results deterministically. It
// returns ok=false only when the band is empty (nothing to allocate from) —
// the caller then falls through to the unsharded dispatch.
func allocateSharded(n *wlan.Network, cfg *wlan.Config, est *Estimator, opts AllocOptions) (*wlan.Config, AllocStats, bool) {
	if len(n.Band.AllChannels()) == 0 {
		return nil, AllocStats{}, false
	}
	workers := opts.shardWorkers()

	// The component partition either comes from the association engine's
	// incrementally maintained partition (attached by the Controller or
	// StreamController, valid for exactly this binding) or from a fresh
	// conflict-graph build. The maintained partition is kept equal to the
	// built one by construction (partition.go), so the solve below cannot
	// tell them apart — it only needs the components and the per-AP client
	// buckets.
	var comps [][]int32
	var clientsOf [][]*wlan.Client
	var graphStats AllocStats
	if opts.Partition.validFor(n, cfg) {
		comps = opts.Partition.components()
		clientsOf = clientsByHome(n, cfg)
		graphStats.PartitionReused = true
	} else {
		g := buildConflictGraph(n, cfg, workers, opts)
		comps, clientsOf = g.comps, g.clientsOf
		graphStats.GraphPairsScanned = g.pairsScanned
		graphStats.GraphPairsPruned = g.pairsPruned
		graphStats.SpatialIndex = g.spatial
	}

	// Only components holding at least one eligible AP are solved; the
	// rest keep their channels untouched and cost nothing — the property
	// the streaming controller's neighbourhood re-optimization relies on
	// (a dirty cell wakes its own component, not the campus).
	var jobs []int
	for ci, comp := range comps {
		for _, i := range comp {
			if opts.eligible(n.APs[i].ID) {
				jobs = append(jobs, ci)
				break
			}
		}
	}

	stats := AllocStats{
		GraphComponents:    len(comps),
		SolvedComponents:   len(jobs),
		ShardWorkersUsed:   workers,
		ComponentDurations: make([]time.Duration, len(jobs)),
		GraphPairsScanned:  graphStats.GraphPairsScanned,
		GraphPairsPruned:   graphStats.GraphPairsPruned,
		SpatialIndex:       graphStats.SpatialIndex,
		PartitionReused:    graphStats.PartitionReused,
	}
	for _, comp := range comps {
		if len(comp) > stats.LargestComponent {
			stats.LargestComponent = len(comp)
		}
	}
	out := cfg.Clone()
	if len(jobs) == 0 {
		stats.Periods = 0
		return out, stats, true
	}

	// Per-component solves: each worker builds the component's subproblem
	// (sub-network, sub-configuration, fresh sub-estimator over exactly its
	// links) and runs the ordinary dispatch on it. Results land in per-job
	// slots; no ordering race.
	subOpts := opts
	subOpts.ShardWorkers = 0 // no recursive sharding: one component is connected
	subOpts.Workers = 1      // parallelism comes from components, not rank scans
	subOpts.Only = nil       // restored below
	subOpts.Partition = nil  // the handle is for the whole network, not a subproblem
	results := make([]shardResult, len(jobs))
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var next int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(jobs) {
					return
				}
				start := time.Now()
				comp := comps[jobs[k]]
				subN, subCfg := buildSubproblem(n, cfg, comp, clientsOf)
				subEst := NewEstimator(subN)
				subEst.MeasurementNoiseDB = est.MeasurementNoiseDB
				o := subOpts
				o.Only = opts.Only
				subOut, subStats := AllocateChannels(subN, subCfg, subEst, o)
				results[k] = shardResult{comp: comp, cfg: subOut, stats: subStats, duration: time.Since(start)}
			}
		}()
	}
	wg.Wait()

	// Serial merge in component order. Channel assignments are disjoint by
	// construction. Estimate-valued statistics are offset so the merged
	// trajectory reads as one monotone global search: a switch in component
	// c is reported against the earlier components' final totals plus the
	// later components' initial totals — deterministic regardless of which
	// worker solved what, and consistent with Initial/FinalEstimate being
	// the ordered sums of the component totals.
	for _, r := range results {
		stats.InitialEstimate += r.stats.InitialEstimate
	}
	base := 0.0 // sum of finals of components already merged
	rest := stats.InitialEstimate
	for k, r := range results {
		for _, i := range r.comp {
			apID := n.APs[i].ID
			out.Channels[apID] = r.cfg.Channels[apID]
		}
		rest -= r.stats.InitialEstimate
		offset := base + rest
		for _, y := range r.stats.Trajectory {
			stats.Trajectory = append(stats.Trajectory, offset+y)
		}
		for _, rec := range r.stats.History {
			rec.Estimate = offset + rec.Estimate
			stats.History = append(stats.History, rec)
		}
		base += r.stats.FinalEstimate
		stats.Switches += r.stats.Switches
		if r.stats.Periods > stats.Periods {
			stats.Periods = r.stats.Periods
		}
		stats.Evals.add(r.stats.Evals)
		stats.RankNanos += r.stats.RankNanos
		if r.stats.Fallback {
			stats.Fallback = true
		}
		if r.stats.SpectrumComponents > stats.SpectrumComponents {
			stats.SpectrumComponents = r.stats.SpectrumComponents
		}
		stats.ComponentDurations[k] = r.duration
	}
	stats.FinalEstimate = base
	return out, stats, true
}

// buildSubproblem extracts one component's self-contained allocation
// problem: the component's APs (in network AP order), the clients homed at
// them (in network client order), and the component's slice of the
// configuration. Every float the subproblem's estimator produces is the
// same bits the full network's estimator would produce for the same cell —
// link SNRs and delays depend only on the (AP, client) pair, populations
// and contention only on the component's own members.
func buildSubproblem(n *wlan.Network, cfg *wlan.Config, comp []int32, clientsOf [][]*wlan.Client) (*wlan.Network, *wlan.Config) {
	subN := &wlan.Network{
		Band:        n.Band,
		Prop:        n.Prop,
		PacketBytes: n.PacketBytes,
		JitterDB:    n.JitterDB,
		CSThreshold: n.CSThreshold,
		AssocMinSNR: n.AssocMinSNR,
		NoiseFigure: n.NoiseFigure,
	}
	subCfg := wlan.NewConfig()
	for _, i := range comp {
		ap := n.APs[i]
		subN.APs = append(subN.APs, ap)
		if ch := cfg.Channels[ap.ID]; !ch.IsZero() {
			subCfg.Channels[ap.ID] = ch
		}
	}
	if n.ContendAdj != nil {
		// The component's slice of the adjacency, renumbered to subproblem
		// AP indices. comp is ascending, so the renumbering is monotone and
		// rows stay ascending; edges leaving the component are dropped,
		// exactly as an ID-keyed predicate over subN's APs would never see
		// them.
		sub := make(map[int32]int32, len(comp))
		for k, i := range comp {
			sub[i] = int32(k)
		}
		subN.ContendAdj = make([][]int32, len(comp))
		for k, i := range comp {
			for _, j := range n.ContendAdj[i] {
				if s, ok := sub[j]; ok {
					subN.ContendAdj[k] = append(subN.ContendAdj[k], s)
				}
			}
		}
	}
	// Clients in network order: walk n.Clients and keep those homed in the
	// component, preserving the estimator's ATD fold order.
	members := make(map[string]bool)
	for _, i := range comp {
		for _, c := range clientsOf[i] {
			members[c.ID] = true
		}
	}
	for _, c := range n.Clients {
		if members[c.ID] {
			subN.Clients = append(subN.Clients, c)
			subCfg.SetAssoc(c.ID, cfg.Assoc[c.ID])
		}
	}
	return subN, subCfg
}
