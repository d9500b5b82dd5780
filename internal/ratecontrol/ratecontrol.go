// Package ratecontrol emulates the proprietary auto-rate behaviour of the
// testbed's Ralink cards: given a link's quality it selects the MCS and the
// MIMO operating mode (SDM for rate on strong links, STBC for reliability on
// weak ones), maximizing expected goodput R·(1−PER). It also provides the
// "optimal fixed MCS" search the paper runs for Fig 6(b). The search is a
// bound-pruned walk of the MCS table whose result is bit-identical to
// evaluating all 16 entries.
package ratecontrol

import (
	"math"
	"sort"
	"sync"

	"acorn/internal/mac"
	"acorn/internal/phy"
	"acorn/internal/spectrum"
	"acorn/internal/units"
)

// MIMO mode SNR adjustments for a 2×2 link, applied to the per-subcarrier
// SNR before evaluating BER:
//
//   - Alamouti STBC combines both antennas coherently, an array gain of
//     ≈3 dB on top of the transmit diversity that stabilizes fading links —
//     this is why the cards fall back to STBC on poor links.
//   - SDM splits the same total power across two independent streams, so
//     each stream runs ≈3 dB below the link SNR (plus residual inter-stream
//     interference, folded into the same constant).
const (
	STBCGain   units.DB = 3
	SDMPenalty units.DB = 3
)

// Selection is the outcome of a rate-control decision.
type Selection struct {
	MCS  phy.MCS
	Mode phy.MIMOMode
	// RateMbps is the nominal PHY rate of the selection.
	RateMbps float64
	// PER is the predicted packet error rate at the evaluated SNR.
	PER float64
	// GoodputMbps is the expected MAC-layer goodput (what the selection
	// was optimized for).
	GoodputMbps float64
	// ShortGI reports whether the selection uses the 400 ns guard
	// interval (only BestGI/EvaluateGI consider it).
	ShortGI bool
}

// effectiveSNR returns the per-stream subcarrier SNR for an MCS given the
// link's per-subcarrier SNR and the implied MIMO mode.
func effectiveSNR(snr units.DB, m phy.MCS) (units.DB, phy.MIMOMode) {
	if m.Streams >= 2 {
		return snr.Minus(SDMPenalty), phy.SDM
	}
	return snr.Plus(STBCGain), phy.STBC
}

// Evaluate predicts PER and goodput for one MCS at the given link SNR and
// width, using the standard 800 ns guard interval. The goodput accounts for
// MAC overheads and retransmissions via the mac package, so comparisons
// between a slow-reliable and fast-lossy MCS are made in the currency that
// matters.
func Evaluate(m phy.MCS, snr units.DB, w spectrum.Width, packetBytes int) Selection {
	return EvaluateGI(m, snr, w, packetBytes, false)
}

// EvaluateGI is Evaluate with an explicit guard-interval choice. The short
// 400 ns GI raises nominal rates ≈11% but shrinks the multipath guard; this
// model charges it a small SNR penalty (ShortGIPenalty) reflecting residual
// inter-symbol interference on indoor channels.
func EvaluateGI(m phy.MCS, snr units.DB, w spectrum.Width, packetBytes int, shortGI bool) Selection {
	eff, mode := effectiveSNR(snr, m)
	if shortGI {
		eff = eff.Minus(ShortGIPenalty)
	}
	per := phy.CodedPERFaded(m.ModCod(), eff, packetBytes, phy.DefaultFadeSigmaDB)
	rate := phy.NominalRateMbps(m, w, shortGI)
	return Selection{MCS: m, Mode: mode, RateMbps: rate, PER: per,
		GoodputMbps: goodputMbps(packetBytes, rate, per), ShortGI: shortGI}
}

// goodputMbps is the reciprocal of the MAC's per-client delay, or 0 when
// the delay is not positive.
func goodputMbps(packetBytes int, rateMbps, per float64) float64 {
	if delay := mac.ClientDelay(packetBytes, rateMbps, per); delay > 0 {
		return 1 / delay
	}
	return 0
}

// ShortGIPenalty is the effective SNR cost of halving the guard interval on
// an indoor channel whose delay spread occasionally exceeds 400 ns.
const ShortGIPenalty units.DB = 0.5

// BestGI extends Best with the guard-interval dimension: the search
// considers both GI settings for every MCS/mode and returns the overall
// goodput maximizer.
func BestGI(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	best := Best(snr, w, packetBytes)
	for _, m := range phy.MCSTable() {
		if s := EvaluateGI(m, snr, w, packetBytes, true); s.GoodputMbps > best.GoodputMbps {
			best = s
		}
	}
	return best
}

// bestCache memoizes Best: the function is pure and the allocation search
// evaluates the same links thousands of times. The key carries the exact
// SNR bits — an earlier version quantized to 0.01 dB, which let two SNRs
// within half a centi-dB share a slot and made every caller after the first
// read a Selection computed from a *different* SNR. That turned results
// order-dependent process-wide (whoever evaluated a bucket first seeded it
// for everyone), which breaks any bit-exactness contract between two code
// paths pricing the same links. Exact keying makes the memo invisible:
// cached and uncached calls return identical bits in any call order.
var bestCache sync.Map // bestKey → Selection

type bestKey struct {
	snrBits     uint64
	width       spectrum.Width
	packetBytes int
}

// Best returns the MCS/mode pair maximizing expected goodput for a link
// whose per-subcarrier SNR at width w is snr. This emulates the Ralink
// auto-rate: it "not only adjusts the rates in response to packet
// successes/failures but also picks the best mode of operation (SDM or
// STBC) based on the channel quality" (Section 3.2).
func Best(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	key := bestKey{snrBits: math.Float64bits(float64(snr)), width: w, packetBytes: packetBytes}
	if v, ok := bestCache.Load(key); ok {
		return v.(Selection)
	}
	best := bestSearch(snr, w, packetBytes)
	bestCache.Store(key, best)
	return best
}

// nominalRates holds each MCS's nominal rate at the standard guard
// interval, at 20 MHz (row 0) and 40 MHz (row 1), and rateOrder the MCS
// table by rate, fastest first, ties in table order. The 40 MHz rates are
// the 20 MHz ones scaled by 108/52, ties included, so one order serves
// both widths.
var nominalRates, rateOrder = func() (rates [2][16]float64, order [16]int) {
	for i := range order {
		m, _ := phy.MCSByIndex(i)
		rates[0][i] = phy.NominalRateMbps(m, spectrum.Width20, false)
		rates[1][i] = phy.NominalRateMbps(m, spectrum.Width40, false)
		order[i] = i
	}
	sort.SliceStable(order[:], func(a, b int) bool { return rates[0][order[a]] > rates[0][order[b]] })
	return rates, order
}()

// bestSearch is the uncached search behind Best. It walks the MCS table
// fastest first and stops at the first MCS whose goodput at PER 0 — the
// same 1/mac.ClientDelay expression Evaluate uses — is below the best
// goodput found so far. Losses and retries only lengthen mac.ClientDelay,
// so that MCS can neither beat nor tie the best; nor can any after it,
// since a lower rate never shortens the delay at PER 0. Every MCS that
// could tie is still evaluated, and a tie goes to the lower table index,
// so the result is the first maximum in table order, exactly what
// evaluating every MCS gives (bestExhaustive).
func bestSearch(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	rates := &nominalRates[0] // phy.NominalRateMbps prices any other width as 20 MHz
	if w == spectrum.Width40 {
		rates = &nominalRates[1]
	}
	var best Selection
	for _, i := range rateOrder {
		if goodputMbps(packetBytes, rates[i], 0) < best.GoodputMbps {
			break
		}
		m, _ := phy.MCSByIndex(i)
		s := Evaluate(m, snr, w, packetBytes)
		if s.GoodputMbps > best.GoodputMbps ||
			(s.GoodputMbps == best.GoodputMbps && m.Index < best.MCS.Index) {
			best = s
		}
	}
	if best.GoodputMbps == 0 {
		// Nothing decodes: report the most robust MCS so callers see a
		// concrete (failing) selection rather than a zero value.
		m0, _ := phy.MCSByIndex(0)
		best = Evaluate(m0, snr, w, packetBytes)
	}
	return best
}

// bestExhaustive evaluates all 16 MCSs and keeps the first maximum in
// table order. It is the oracle bestSearch is tested against.
func bestExhaustive(snr units.DB, w spectrum.Width, packetBytes int) Selection {
	var best Selection
	for _, m := range phy.MCSTable() {
		s := Evaluate(m, snr, w, packetBytes)
		if s.GoodputMbps > best.GoodputMbps {
			best = s
		}
	}
	if best.GoodputMbps == 0 {
		best = Evaluate(phy.MCSTable()[0], snr, w, packetBytes)
	}
	return best
}

// OptimalFixedMCS performs the exhaustive search of Fig 6(b): for the given
// link SNR it finds, separately for 20 and 40 MHz, the fixed MCS (considering
// both SDM and STBC operation) that yields the highest goodput. The 40 MHz
// SNR is derived from the 20 MHz SNR by subtracting the bonding penalty.
func OptimalFixedMCS(snr20 units.DB, packetBytes int) (best20, best40 Selection) {
	best20 = Best(snr20, spectrum.Width20, packetBytes)
	best40 = Best(snr20.Minus(phy.BondingSNRPenalty()), spectrum.Width40, packetBytes)
	return best20, best40
}

// AutoRate is a stateful rate controller with hysteresis, used by the
// mobility experiments where SNR varies over time. It re-runs Best only when
// the SNR moves more than Hysteresis away from the SNR of the last decision,
// mimicking the sluggishness of a real probing rate adapter.
type AutoRate struct {
	Width       spectrum.Width
	PacketBytes int
	// Hysteresis is the SNR change (dB) required to trigger a new search.
	Hysteresis units.DB

	lastSNR units.DB
	current Selection
	valid   bool
}

// NewAutoRate returns an AutoRate for the given width with the default 1 dB
// hysteresis.
func NewAutoRate(w spectrum.Width, packetBytes int) *AutoRate {
	return &AutoRate{Width: w, PacketBytes: packetBytes, Hysteresis: 1}
}

// Update feeds a new SNR observation and returns the (possibly unchanged)
// current selection.
func (a *AutoRate) Update(snr units.DB) Selection {
	if !a.valid || abs(snr-a.lastSNR) >= a.Hysteresis {
		a.current = Best(snr, a.Width, a.PacketBytes)
		a.lastSNR = snr
		a.valid = true
	}
	return a.current
}

func abs(d units.DB) units.DB {
	if d < 0 {
		return -d
	}
	return d
}
