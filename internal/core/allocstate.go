package core

// Incremental evaluation state for Algorithm 2 (the tentpole of the
// allocator-scaling work; see DESIGN.md §10).
//
// The generic path prices a candidate (AP i on channel c) with a full
// estimator sweep: O(APs·clients + APs²) map-heavy work per candidate. But
// between two candidates only one assignment differs, and the estimator's
// objective is a sum of per-cell terms
//
//	Y(cfg) = Σ_i  k_i · M_i / ATD_i      (populated cells, AP order)
//
// where k_i and ATD_i depend only on the association map and the cell's
// width (two widths → fully precomputable), and M_i = 1/(contenders+1)
// depends only on which *conflicting* neighbors cell i has. Moving AP i
// from channel a to channel b therefore changes exactly the cells
//
//	C = {i} ∪ {j ∈ N(i) : Conflicts(a, ch_j) ≠ Conflicts(b, ch_j)}
//
// (N(i) = populated contenders of i, a static graph during one run). The
// incremental engine caches every cell term, recomputes only C, and re-sums
// the cached terms in the same left-to-right AP order the estimator uses.
// Because every term is produced by the same float expression and the sum
// runs in the same order over bit-identical values, the result is
// bit-identical to Estimator.NetworkThroughput — not merely close. That is
// the property the golden-trace test and the parallel-equivalence tests
// pin.
//
// Channel conflicts reduce to bitmask intersection: each 20 MHz component
// gets one bit, a channel's mask is the OR of its component bits, and
// Conflicts(a, b) ⟺ mask(a) ∩ mask(b) ≠ ∅. This removes the slice
// allocations of spectrum.Channel.Conflicts from the hot path. Masks are
// multi-word bitsets (internal/bitset) whose word count is fixed when the
// state is built from the number of distinct components in play, so a
// campus-scale band with hundreds of components runs on the same engine —
// there is no 64-component fallback.

import (
	"sort"

	"acorn/internal/bitset"
	"acorn/internal/spectrum"
	"acorn/internal/wlan"
)

// allocState is the immutable-per-run part of the incremental engine plus
// the base view holding the committed configuration. It is built once per
// AllocateChannels call.
type allocState struct {
	n *wlan.Network

	// apIDs mirrors n.APs order (the estimator's summation order); apIdx
	// inverts it. sortedIdx lists AP indices in lexicographic ID order —
	// the greedy tie-breaking order of the search.
	apIDs     []string
	apIdx     map[string]int
	sortedIdx []int

	// populated is the cell size k_i; popIdx lists populated AP indices
	// ascending (the cells that contribute to the objective).
	populated []int
	popIdx    []int

	// atd holds the precomputed aggregate total delay of every populated
	// cell for both widths ([0]=20 MHz, [1]=40 MHz), summed in n.Clients
	// order exactly as Estimator.NetworkThroughput does.
	atd [][2]float64

	// neighbors is the static contention graph restricted to populated
	// cells: neighbors[i] lists populated j ≠ i with Contend(i, j), in
	// ascending index order. Contention is channel-independent, so the
	// graph never changes during a run.
	neighbors [][]int32

	// channels is the candidate color set (band order, as the generic
	// path iterates it); chMask and chWidthIdx are its per-candidate
	// conflict masks and atd column indices. compWords is the mask word
	// count (fixed at build from nComp, the number of distinct 20 MHz
	// components across the band and the current configuration).
	channels   []spectrum.Channel
	chMask     bitset.Field
	chWidthIdx []uint8
	compWords  int
	nComp      int

	// comps lists the connected components of the populated contention
	// graph, each a sorted slice of AP indices, ordered by smallest member
	// (see components.go). The sharded solver fans these across workers;
	// the metrics report their count and sizes.
	comps [][]int32

	// pairsScanned/pairsPruned count the populated pairs that reached
	// contendPair vs. were pruned by the spatial index during the graph
	// build; spatial records whether the index ran (see spatial.go).
	pairsScanned int
	pairsPruned  int
	spatial      bool

	// base is the committed configuration's view; scratch views for
	// worker-parallel rank scans are cloned from it on demand.
	base allocView

	// commitScratch collects the changed-cell set of the last commit.
	commitScratch []int32
}

// allocView is one mutable view of the search state: the per-AP channel
// masks and width columns, the cached per-cell terms, and the cached total.
// The base view tracks the committed configuration; each worker owns a
// private view so candidate evaluations never contend. A view's arrays are
// versioned against the base so workers resynchronize with two copies
// instead of re-deriving anything.
type allocView struct {
	st      *allocState
	mask    bitset.Field
	wIdx    []uint8
	cellY   []float64
	curY    float64
	version uint64

	// Apply/revert scratch for evalMove: touched cells, their saved terms,
	// and the moving AP's saved mask (multi-word, so it cannot ride in a
	// register like the old uint64 did).
	touched []int32
	savedY  []float64
	oldMask bitset.Set

	// evals accumulates this view's work counters; the runner folds them
	// into the run totals after every parallel round, keeping the totals
	// independent of how work was sharded.
	evals EvalStats
}

// newAllocState builds the incremental state for one run, or returns nil
// when the configuration cannot be represented (an empty band, or a
// populated AP without an assigned channel) — the caller then falls back to
// the generic path, which handles anything. The component count no longer
// bounds representability: masks are sized to fit whatever the band and the
// configuration hold. opts supplies the spatial-index knobs of the
// contention-graph build; the graph is identical with or without the index.
func newAllocState(n *wlan.Network, cfg *wlan.Config, est *Estimator, opts AllocOptions) *allocState {
	st := &allocState{
		n:         n,
		apIDs:     make([]string, len(n.APs)),
		apIdx:     make(map[string]int, len(n.APs)),
		populated: make([]int, len(n.APs)),
		atd:       make([][2]float64, len(n.APs)),
		neighbors: make([][]int32, len(n.APs)),
		channels:  n.Band.AllChannels(),
	}
	for i, ap := range n.APs {
		st.apIDs[i] = ap.ID
		st.apIdx[ap.ID] = i
	}
	if len(st.channels) == 0 {
		return nil
	}
	st.sortedIdx = make([]int, len(st.apIDs))
	for i := range st.sortedIdx {
		st.sortedIdx[i] = i
	}
	sort.Slice(st.sortedIdx, func(a, b int) bool {
		return st.apIDs[st.sortedIdx[a]] < st.apIDs[st.sortedIdx[b]]
	})

	// Component → bit assignment: band components first, then whatever the
	// current configuration holds beyond the band. Two passes — the first
	// enumerates every component in play so the mask word count is known
	// before any mask is built, the second fills the masks (and can no
	// longer encounter a new component).
	compBit := make(map[spectrum.ChannelID]uint, 16)
	enumerate := func(ch spectrum.Channel) {
		for _, comp := range ch.Components() {
			if _, ok := compBit[comp]; !ok {
				compBit[comp] = uint(len(compBit))
			}
		}
	}
	for _, ch := range st.channels {
		enumerate(ch)
	}
	for _, ap := range n.APs {
		if ch := cfg.Channels[ap.ID]; !ch.IsZero() {
			enumerate(ch)
		}
	}
	st.nComp = len(compBit)
	st.compWords = bitset.Words(st.nComp)
	maskInto := func(dst bitset.Set, ch spectrum.Channel) {
		for _, comp := range ch.Components() {
			dst.SetBit(compBit[comp])
		}
	}
	st.chMask = bitset.NewField(len(st.channels), st.compWords)
	st.chWidthIdx = make([]uint8, len(st.channels))
	for ci, ch := range st.channels {
		maskInto(st.chMask.At(ci), ch)
		st.chWidthIdx[ci] = widthIdx(ch.Width)
	}

	// Cell population, mirroring the estimator: count every association,
	// read counts only for known APs.
	for _, apID := range cfg.Assoc {
		if i, ok := st.apIdx[apID]; ok {
			st.populated[i]++
		}
	}
	for i := range st.populated {
		if st.populated[i] > 0 {
			st.popIdx = append(st.popIdx, i)
		}
	}

	// Current assignment masks. A populated cell must hold a representable
	// channel; unpopulated cells may sit on anything (they contribute
	// nothing and conflict with nothing when unassigned).
	v := &st.base
	v.st = st
	v.mask = bitset.NewField(len(n.APs), st.compWords)
	v.wIdx = make([]uint8, len(n.APs))
	v.cellY = make([]float64, len(n.APs))
	v.oldMask = bitset.New(st.compWords)
	for i, ap := range n.APs {
		ch := cfg.Channels[ap.ID]
		if ch.IsZero() {
			if st.populated[i] > 0 {
				return nil
			}
			continue
		}
		maskInto(v.mask.At(i), ch)
		v.wIdx[i] = widthIdx(ch.Width)
	}

	// Per-cell delay tables for both widths, summed in n.Clients order —
	// the exact order (and therefore the exact float sums) the estimator
	// produces. Clients associated to unknown APs are skipped, like the
	// estimator's per-cell loop never visits them.
	clientsOf := make([][]*wlan.Client, len(n.APs))
	for _, c := range n.Clients {
		home, ok := st.apIdx[cfg.Assoc[c.ID]]
		if !ok {
			continue
		}
		st.atd[home][0] += est.clientDelayWidth(st.apIDs[home], c.ID, spectrum.Width20)
		st.atd[home][1] += est.clientDelayWidth(st.apIDs[home], c.ID, spectrum.Width40)
		clientsOf[home] = append(clientsOf[home], c)
	}

	// Static contention graph over populated cells. The predicate
	// replicates wlan.Network.Contend for the pair (i, j) — the same
	// direction the estimator's cache would fix on first query — but walks
	// only the two cells' clients instead of every client in the network.
	// When the spatial index yields a sound cutoff, only candidate pairs
	// reach the predicate; pruned pairs provably cannot contend, so the
	// adjacency is identical either way (candidates arrive in the same
	// (a ascending, j ascending) order the full scan uses). An explicit
	// contention adjacency is the graph itself.
	if n.ContendAdj != nil {
		edges := adjacencyNeighbors(n, st.popIdx, st.populated, st.neighbors)
		st.pairsScanned = edges
		st.pairsPruned = totalPairs(len(st.popIdx)) - edges
	} else if rows, scanned, ok := spatialCandidates(n, st.popIdx, clientsOf, opts); ok {
		st.spatial = true
		st.pairsScanned = scanned
		st.pairsPruned = totalPairs(len(st.popIdx)) - scanned
		for a, i := range st.popIdx {
			for _, j32 := range rows[a] {
				j := int(j32)
				if st.contendPair(i, j, clientsOf) {
					st.neighbors[i] = append(st.neighbors[i], int32(j))
					st.neighbors[j] = append(st.neighbors[j], int32(i))
				}
			}
		}
	} else {
		st.pairsScanned = totalPairs(len(st.popIdx))
		for a := 0; a < len(st.popIdx); a++ {
			i := st.popIdx[a]
			for b := a + 1; b < len(st.popIdx); b++ {
				j := st.popIdx[b]
				if st.contendPair(i, j, clientsOf) {
					st.neighbors[i] = append(st.neighbors[i], int32(j))
					st.neighbors[j] = append(st.neighbors[j], int32(i))
				}
			}
		}
	}

	// Connected components of the populated contention graph — the units
	// of independence the sharded solver and the metrics report on.
	st.comps = contentionComponents(st.neighbors, st.popIdx)

	// Seed the per-cell terms and the cached total.
	for _, i := range st.popIdx {
		v.recompute(i)
	}
	v.curY = v.resum()
	return st
}

// widthIdx maps a channel width to its atd column.
func widthIdx(w spectrum.Width) uint8 {
	if w == spectrum.Width40 {
		return 1
	}
	return 0
}

// contendPair reports whether APs i and j contend for the medium: the
// geometric predicate of wlan.Network.Contend (carrier-sense between the
// APs, or either AP carrier-sensing a client of the other), restricted to
// the two cells' own clients. Boolean-equivalent to n.Contend(APs[i],
// APs[j], cfg) on a network without an explicit contention adjacency —
// the graph builders walk the adjacency instead of asking here.
func (st *allocState) contendPair(i, j int, clientsOf [][]*wlan.Client) bool {
	n := st.n
	a, b := n.APs[i], n.APs[j]
	if n.Prop.RxPower(a.TxPower, a.Pos.DistanceTo(b.Pos), 0) >= n.CSThreshold {
		return true
	}
	for _, cl := range clientsOf[i] {
		if n.Prop.RxPower(b.TxPower, b.Pos.DistanceTo(cl.Pos), 0) >= n.CSThreshold {
			return true
		}
	}
	for _, cl := range clientsOf[j] {
		if n.Prop.RxPower(a.TxPower, a.Pos.DistanceTo(cl.Pos), 0) >= n.CSThreshold {
			return true
		}
	}
	return false
}

// newView clones the base view for a worker.
func (st *allocState) newView() *allocView {
	v := &allocView{
		st:      st,
		mask:    st.base.mask.Clone(),
		wIdx:    append([]uint8(nil), st.base.wIdx...),
		cellY:   append([]float64(nil), st.base.cellY...),
		oldMask: bitset.New(st.compWords),
	}
	v.curY = st.base.curY
	v.version = st.base.version
	return v
}

// syncFrom refreshes a worker view to the base's committed state. Cheap:
// three array copies, no recomputation.
func (v *allocView) syncFrom(base *allocView) {
	if v.version == base.version {
		return
	}
	v.mask.CopyFrom(base.mask)
	copy(v.wIdx, base.wIdx)
	copy(v.cellY, base.cellY)
	v.curY = base.curY
	v.version = base.version
}

// recompute refreshes the cached term of cell i from the view's current
// masks. The expression — including operation order — matches the
// estimator's `float64(k) * accessShare / atd` term exactly.
func (v *allocView) recompute(i int) {
	st := v.st
	v.evals.CellRecomputes++
	atd := st.atd[i][v.wIdx[i]]
	if atd <= 0 {
		// The estimator skips such cells; a zero term keeps the resum
		// bit-identical (adding +0.0 to a non-negative partial sum is
		// exact).
		v.cellY[i] = 0
		return
	}
	m := v.mask.At(i)
	contenders := 0
	for _, j := range st.neighbors[i] {
		if v.mask.At(int(j)).Intersects(m) {
			contenders++
		}
	}
	share := 1 / float64(contenders+1)
	v.cellY[i] = float64(st.populated[i]) * share / atd
}

// resum folds the cached per-cell terms in AP order — the estimator's
// summation order, which the comment in NetworkThroughput pins as the
// determinism contract.
func (v *allocView) resum() float64 {
	var total float64
	for _, i := range v.st.popIdx {
		total += v.cellY[i]
	}
	return total
}

// evalMove prices the candidate "AP i moves to the channel with mask m and
// width column w": it recomputes the affected cells, resums, and reverts.
// Bit-identical to a full estimator sweep of the hypothetical
// configuration.
func (v *allocView) evalMove(i int, m bitset.Set, w uint8) float64 {
	st := v.st
	maskI := v.mask.At(i)
	if m.Equal(maskI) || st.populated[i] == 0 {
		// Same channel, or a cell that contributes nothing and conflicts
		// with nothing: the objective cannot change.
		return v.curY
	}
	v.evals.DeltaEvals++
	v.touched = v.touched[:0]
	v.savedY = v.savedY[:0]
	old := v.oldMask
	old.Copy(maskI)
	oldW := v.wIdx[i]

	v.touched = append(v.touched, int32(i))
	v.savedY = append(v.savedY, v.cellY[i])
	maskI.Copy(m)
	v.wIdx[i] = w
	v.recompute(i)
	for _, j := range st.neighbors[i] {
		nm := v.mask.At(int(j))
		if nm.Intersects(old) != nm.Intersects(m) {
			v.touched = append(v.touched, j)
			v.savedY = append(v.savedY, v.cellY[j])
			v.recompute(int(j))
		}
	}
	total := v.resum()

	for k, j := range v.touched {
		v.cellY[j] = v.savedY[k]
	}
	maskI.Copy(old)
	v.wIdx[i] = oldW
	return total
}

// rankOf runs the candidate argmax for AP i over every channel in the band
// — the incremental counterpart of bestChannelFor, with identical argmax
// semantics (first maximum in candidate order wins; the current channel
// prices at the cached total). It returns the winning candidate's index
// into st.channels and its evaluated total.
func (v *allocView) rankOf(i int) (int, float64) {
	st := v.st
	v.evals.RankEvals++
	bestCi, bestY := 0, -1.0
	for ci := range st.channels {
		y := v.evalMove(i, st.chMask.At(ci), st.chWidthIdx[ci])
		if y > bestY {
			bestCi, bestY = ci, y
		}
	}
	return bestCi, bestY
}

// commitMove installs "AP i moves to candidate ci" into the base view and
// returns the changed-cell set C = {i} ∪ {flipped neighbors} (valid until
// the next commit). The caller updates curY with the winner's evaluated
// total — the same bits commitMove's own resum would produce.
func (st *allocState) commitMove(i, ci int) []int32 {
	v := &st.base
	m, w := st.chMask.At(ci), st.chWidthIdx[ci]
	old := v.oldMask // scratch is free here: commits never overlap an eval
	old.Copy(v.mask.At(i))
	changed := st.commitScratch[:0]

	v.mask.At(i).Copy(m)
	v.wIdx[i] = w
	changed = append(changed, int32(i))
	v.recompute(i)
	for _, j := range st.neighbors[i] {
		nm := v.mask.At(int(j))
		if nm.Intersects(old) != nm.Intersects(m) {
			changed = append(changed, j)
			v.recompute(int(j))
		}
	}
	v.curY = v.resum()
	v.version++
	st.commitScratch = changed
	return changed
}
