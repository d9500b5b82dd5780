package phy

import (
	"fmt"
	"math"

	"acorn/internal/units"
)

// CodeRate is a forward-error-correction code rate of the 802.11n K=7
// convolutional code family.
type CodeRate int

// The code rates 802.11n supports (rate 2/3, 3/4 and 5/6 are obtained by
// puncturing the rate-1/2 mother code).
const (
	Rate12 CodeRate = iota
	Rate23
	Rate34
	Rate56
)

// String implements fmt.Stringer.
func (r CodeRate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	case Rate34:
		return "3/4"
	case Rate56:
		return "5/6"
	default:
		return fmt.Sprintf("CodeRate(%d)", int(r))
	}
}

// Value returns the code rate as a float (information bits per coded bit).
func (r CodeRate) Value() float64 {
	switch r {
	case Rate12:
		return 0.5
	case Rate23:
		return 2.0 / 3
	case Rate34:
		return 0.75
	case Rate56:
		return 5.0 / 6
	default:
		panic(fmt.Sprintf("phy: unknown code rate %d", int(r)))
	}
}

// codeSpectrum holds the free distance and the leading information-weight
// spectrum terms {B_dfree, B_dfree+1, …} of the punctured K=7 convolutional
// codes, taken from the standard published tables (Frenger et al.). The
// union bound truncated to these terms is accurate in the waterfall region
// that matters for link classification.
type codeSpectrum struct {
	dFree int
	bd    []float64
}

// codeSpectra is indexed by CodeRate.
var codeSpectra = [...]codeSpectrum{
	Rate12: {dFree: 10, bd: []float64{36, 0, 211, 0, 1404, 0, 11633, 0, 77433, 0}},
	Rate23: {dFree: 6, bd: []float64{3, 70, 285, 1276, 6160, 27128, 117019}},
	Rate34: {dFree: 5, bd: []float64{42, 201, 1492, 10469, 62935, 379546, 2252394}},
	Rate56: {dFree: 4, bd: []float64{92, 528, 8694, 79453, 792114, 7375573}},
}

// CodedBER estimates the post-Viterbi (soft-decision) bit error rate of the
// 802.11n convolutional code at the given code rate, for a channel whose
// uncoded per-subcarrier SNR is snr and whose modulation is m. It applies
// the truncated union bound Pb ≤ Σ B_d·Q(√(2·d·R·γb)).
//
// ACORN's link-quality estimator (Section 4.2) uses this together with
// Eq. 6 to predict the PER a client would see on a channel of the other
// width: "a BER estimation module calculates the theoretical coded BER".
func CodedBER(m Modulation, r CodeRate, snr units.DB) float64 {
	es := snr.Linear()
	if es <= 0 {
		return 0.5
	}
	if r < 0 || int(r) >= len(codeSpectra) {
		panic(fmt.Sprintf("phy: unknown code rate %d", int(r)))
	}
	spec := &codeSpectra[r]
	// Per information-bit SNR after despreading the symbol energy across
	// coded bits: γb = Es/N0 / (log2(M) · R).
	gammaB := es / (float64(m.BitsPerSymbol()) * r.Value())
	var pb float64
	for i, bd := range spec.bd {
		d := float64(spec.dFree + i)
		pb += bd * Q(math.Sqrt(2*d*r.Value()*gammaB))
	}
	if pb > 0.5 {
		pb = 0.5
	}
	return pb
}

// ModCod is a modulation and code rate pair — the "modcod" axis of Fig 5
// and Table 1.
type ModCod struct {
	Modulation Modulation
	Rate       CodeRate
}

// String implements fmt.Stringer.
func (mc ModCod) String() string {
	return fmt.Sprintf("%s %s", mc.Modulation, mc.Rate)
}

// Fig5ModCods are the four modulation/code-rate combinations the paper
// sweeps in Fig 5 (BPSK is omitted there because it behaves like QPSK).
var Fig5ModCods = []ModCod{
	{QPSK, Rate34},
	{QAM16, Rate34},
	{QAM64, Rate34},
	{QAM64, Rate56},
}
