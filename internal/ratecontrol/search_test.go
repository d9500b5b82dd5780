package ratecontrol

import (
	"math"
	"testing"

	"acorn/internal/phy"
	"acorn/internal/spectrum"
	"acorn/internal/units"
)

// sameSelection reports whether two selections agree bit for bit, with
// NaN equal to NaN.
func sameSelection(a, b Selection) bool {
	return a.MCS == b.MCS && a.Mode == b.Mode && a.ShortGI == b.ShortGI &&
		math.Float64bits(a.RateMbps) == math.Float64bits(b.RateMbps) &&
		math.Float64bits(a.PER) == math.Float64bits(b.PER) &&
		math.Float64bits(a.GoodputMbps) == math.Float64bits(b.GoodputMbps)
}

var searchWidths = []spectrum.Width{spectrum.Width20, spectrum.Width40}

var searchPacketSizes = []int{0, 64, 1500, phy.DefaultPacketSizeBytes, 65535}

func checkSearch(t *testing.T, snr units.DB, w spectrum.Width, pb int) {
	t.Helper()
	got, want := bestSearch(snr, w, pb), bestExhaustive(snr, w, pb)
	if !sameSelection(got, want) {
		t.Fatalf("snr %v (bits %#x) %v pb %d: search %+v, exhaustive %+v",
			snr, math.Float64bits(float64(snr)), w, pb, got, want)
	}
}

func TestBestMatchesExhaustive(t *testing.T) {
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	step := 0.05
	if testing.Short() {
		step = 0.25
	}
	// Width 80 is not an 802.11n width; phy.NominalRateMbps prices it as
	// 20 MHz, and the search's rate table must do the same.
	for _, w := range append(searchWidths, 80) {
		for _, pb := range searchPacketSizes {
			for i := 0; ; i++ {
				snr := -60 + float64(i)*step
				if snr > 90 {
					break
				}
				checkSearch(t, units.DB(snr), w, pb)
			}
			for _, snr := range special {
				checkSearch(t, units.DB(snr), w, pb)
			}
		}
	}
}

// TestBestMemoHitMatchesMiss checks that Best returns the same bits from
// a fresh search and from its memo.
func TestBestMemoHitMatchesMiss(t *testing.T) {
	for _, w := range searchWidths {
		for _, pb := range searchPacketSizes {
			for _, snr := range []float64{-7.3, 3.1, 17.77, 24.4, 31.9, math.NaN()} {
				s := units.DB(snr)
				want := bestExhaustive(s, w, pb)
				bestCache.Delete(bestKey{snrBits: math.Float64bits(snr), width: w, packetBytes: pb})
				miss := Best(s, w, pb)
				hit := Best(s, w, pb)
				if !sameSelection(miss, want) || !sameSelection(hit, want) {
					t.Fatalf("snr %v %v pb %d: miss %+v, hit %+v, exhaustive %+v", snr, w, pb, miss, hit, want)
				}
			}
		}
	}
}

func FuzzBestMatchesExhaustive(f *testing.F) {
	for _, snr := range []float64{-60, -3, 0, 12.5, 24, 90, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)} {
		for _, pb := range []int{0, 1500, 65535} {
			f.Add(math.Float64bits(snr), false, pb)
			f.Add(math.Float64bits(snr), true, pb)
		}
	}
	f.Add(uint64(0x4031000000000000), true, -1)
	f.Fuzz(func(t *testing.T, snrBits uint64, wide bool, pb int) {
		w := spectrum.Width20
		if wide {
			w = spectrum.Width40
		}
		checkSearch(t, units.DB(math.Float64frombits(snrBits)), w, pb)
	})
}

// coldSNR returns the i-th of a low-discrepancy sequence of SNRs over
// [lo, hi) dB, so no two benchmark iterations price the same link.
func coldSNR(i int, lo, hi float64) units.DB {
	const phi = 0.6180339887498949
	f := float64(i) * phi
	return units.DB(lo + (hi-lo)*(f-math.Floor(f)))
}

var benchSink Selection

// The cold benchmarks price strong links (18–32 dB), where the first MCS
// evaluated usually bounds out the rest, and weak links (−6–18 dB), where
// the search evaluates most of the table and all of it below 0 dB.
func benchCold(b *testing.B, search func(units.DB, spectrum.Width, int) Selection, lo, hi float64) {
	for i := 0; i < b.N; i++ {
		benchSink = search(coldSNR(i, lo, hi), searchWidths[i&1], phy.DefaultPacketSizeBytes)
	}
}

func BenchmarkBestCold(b *testing.B)               { benchCold(b, bestSearch, 18, 32) }
func BenchmarkBestExhaustiveCold(b *testing.B)     { benchCold(b, bestExhaustive, 18, 32) }
func BenchmarkBestColdWeak(b *testing.B)           { benchCold(b, bestSearch, -6, 18) }
func BenchmarkBestExhaustiveColdWeak(b *testing.B) { benchCold(b, bestExhaustive, -6, 18) }

// TestRateOrder pins what the search's early stop relies on: the walk
// visits every MCS once, its table rates equal phy.NominalRateMbps, and
// the rate never rises along it at either width, ties in table order.
func TestRateOrder(t *testing.T) {
	var seen [16]bool
	for k, i := range rateOrder {
		seen[i] = true
		m, _ := phy.MCSByIndex(i)
		for wi, w := range searchWidths {
			rate := nominalRates[wi][i]
			if want := phy.NominalRateMbps(m, w, false); rate != want {
				t.Errorf("%v MCS%d: table rate %v, want %v", w, i, rate, want)
			}
			if k == 0 {
				continue
			}
			prev := rateOrder[k-1]
			if p := nominalRates[wi][prev]; p < rate || (p == rate && prev > i) {
				t.Errorf("%v: MCS%d (%v Mbit/s) walked after MCS%d (%v Mbit/s)", w, i, rate, prev, p)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("MCS%d missing from the walk", i)
		}
	}
}
