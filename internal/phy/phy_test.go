package phy

import (
	"math"
	"testing"
	"testing/quick"

	"acorn/internal/spectrum"
	"acorn/internal/units"
)

func TestNoiseFloorEq1(t *testing.T) {
	// Eq. 1: N = -174 + 10·log10(B).
	n20 := float64(NoiseFloorWidth(spectrum.Width20))
	n40 := float64(NoiseFloorWidth(spectrum.Width40))
	if math.Abs(n20-(-100.99)) > 0.05 {
		t.Errorf("20 MHz noise floor = %v, want ≈-101", n20)
	}
	// "the noise in a 40 MHz channel is about 3 dBm higher"
	if math.Abs((n40-n20)-3.0103) > 1e-6 {
		t.Errorf("40 vs 20 MHz noise delta = %v, want 3.01", n40-n20)
	}
}

func TestBondingSNRPenaltyIs3dB(t *testing.T) {
	p := float64(BondingSNRPenalty())
	if p < 2.9 || p > 3.2 {
		t.Errorf("bonding penalty = %v dB, want ≈3", p)
	}
}

func TestSubcarrierTxPowerSplit(t *testing.T) {
	tx := units.DBm(20)
	p20 := float64(SubcarrierTxPower(tx, spectrum.Width20))
	p40 := float64(SubcarrierTxPower(tx, spectrum.Width40))
	// Energy per subcarrier approximately halves with CB.
	if d := p20 - p40; d < 2.9 || d > 3.2 {
		t.Errorf("per-subcarrier power delta = %v, want ≈3 dB", d)
	}
}

func TestSubcarrierNoiseNearlyConstant(t *testing.T) {
	// Per-subcarrier noise should be identical at both widths (the
	// subcarrier spacing does not change).
	n := float64(SubcarrierNoiseFloor())
	if math.Abs(n-(-119)) > 0.5 {
		t.Errorf("subcarrier noise floor = %v, want ≈-119 dBm", n)
	}
}

func TestSubcarrierSNRWidthGap(t *testing.T) {
	rx := units.DBm(-70)
	gap := float64(SubcarrierSNR(rx, spectrum.Width20)) - float64(SubcarrierSNR(rx, spectrum.Width40))
	if gap < 2.9 || gap > 3.2 {
		t.Errorf("per-subcarrier SNR gap = %v, want ≈3 dB", gap)
	}
}

func TestShannonCapacityLowSNRRegime(t *testing.T) {
	// At high SNR doubling bandwidth (with the 3 dB SNR cost) wins; at
	// very low SNR it can lose — the paper's Eq. 2 argument.
	high := units.DB(25)
	c20h := ShannonCapacity(units.Bandwidth20MHz, high)
	c40h := ShannonCapacity(units.Bandwidth40MHz, high-3)
	if c40h <= c20h {
		t.Errorf("high SNR: 40 MHz capacity %v should beat 20 MHz %v", c40h, c20h)
	}
	low := units.DB(-9)
	c20l := ShannonCapacity(units.Bandwidth20MHz, low)
	c40l := ShannonCapacity(units.Bandwidth40MHz, low-3)
	// In the deep low-SNR regime the capacities converge (and the wider
	// band's advantage vanishes); verify the ratio collapses toward 1
	// compared with the high-SNR regime.
	if c40l/c20l > c40h/c20h {
		t.Errorf("low-SNR capacity ratio %v should be below high-SNR ratio %v",
			c40l/c20l, c40h/c20h)
	}
}

func TestUncodedBERMonotoneDecreasing(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, DQPSK, QAM16, QAM64} {
		prev := 1.0
		for snr := units.DB(-10); snr <= 30; snr += 1 {
			b := UncodedBER(m, snr)
			if b > prev+1e-15 {
				t.Errorf("%v: BER increased at %v dB", m, snr)
			}
			if b < 0 || b > 0.5 {
				t.Errorf("%v: BER %v out of range at %v dB", m, b, snr)
			}
			prev = b
		}
	}
}

func TestUncodedBEROrderingAcrossModulations(t *testing.T) {
	// At a fixed medium SNR, denser constellations are more error-prone.
	snr := units.DB(12)
	bpsk := UncodedBER(BPSK, snr)
	qam16 := UncodedBER(QAM16, snr)
	qam64 := UncodedBER(QAM64, snr)
	if !(bpsk < qam16 && qam16 < qam64) {
		t.Errorf("BER ordering violated: BPSK %v, 16QAM %v, 64QAM %v", bpsk, qam16, qam64)
	}
	// DQPSK pays a penalty over coherent QPSK.
	if UncodedBER(DQPSK, snr) <= UncodedBER(QPSK, snr) {
		t.Error("DQPSK should have higher BER than QPSK")
	}
}

func TestUncodedBERKnownPoint(t *testing.T) {
	// BPSK at Eb/N0 = 2 (≈3 dB): Pb = Q(2) ≈ 0.02275.
	got := UncodedBER(BPSK, units.Ratio(2))
	if math.Abs(got-0.02275) > 1e-4 {
		t.Errorf("BPSK BER at 3 dB = %v, want ≈0.02275", got)
	}
}

func TestUncodedSERBounds(t *testing.T) {
	f := func(snrRaw int16, mRaw uint8) bool {
		m := Modulation(int(mRaw) % 5)
		snr := units.DB(float64(snrRaw%500) / 10)
		s := UncodedSER(m, snr)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodedBERBelowUncodedInWaterfall(t *testing.T) {
	// In the operating region, coding must help.
	for _, mc := range Fig5ModCods {
		snr := units.DB(12)
		if mc.Modulation == QPSK {
			snr = 6
		}
		coded := CodedBER(mc.Modulation, mc.Rate, snr)
		uncoded := UncodedBER(mc.Modulation, snr)
		if coded >= uncoded {
			t.Errorf("%v: coded BER %v not below uncoded %v at %v dB", mc, coded, uncoded, snr)
		}
	}
}

func TestCodedBERRateOrdering(t *testing.T) {
	// Weaker code rates give higher BER at the same SNR.
	snr := units.DB(8)
	r12 := CodedBER(QPSK, Rate12, snr)
	r34 := CodedBER(QPSK, Rate34, snr)
	r56 := CodedBER(QPSK, Rate56, snr)
	if !(r12 < r34 && r34 < r56) {
		t.Errorf("code-rate ordering violated: 1/2=%v 3/4=%v 5/6=%v", r12, r34, r56)
	}
}

func TestPERFromBEREq6(t *testing.T) {
	// Eq. 6: PER = 1 − (1 − BER)^L.
	ber := 1e-4
	l := 1500 * 8
	want := 1 - math.Pow(1-ber, float64(l))
	got := PERFromBER(ber, 1500)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PER = %v, want %v", got, want)
	}
	if PERFromBER(0, 1500) != 0 {
		t.Error("zero BER should give zero PER")
	}
	if PERFromBER(1, 1500) != 1 {
		t.Error("BER 1 should give PER 1")
	}
}

func TestPERMonotoneInBER(t *testing.T) {
	f := func(a, b uint16) bool {
		x := float64(a) / 65535 * 0.01
		y := float64(b) / 65535 * 0.01
		if x > y {
			x, y = y, x
		}
		return PERFromBER(x, 1500) <= PERFromBER(y, 1500)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmaRegimes(t *testing.T) {
	// Low power: both widths fail → σ ≈ 1.
	if s := Sigma(1, 1); s != 1 {
		t.Errorf("σ(1,1) = %v, want 1", s)
	}
	// Crossover: 20 MHz works, 40 MHz half-dead → σ large.
	if s := Sigma(0.02, 0.95); s < 2 {
		t.Errorf("σ(0.02,0.95) = %v, want ≥ 2", s)
	}
	// High power: both clean → σ ≈ 1.
	if s := Sigma(0.001, 0.002); math.Abs(s-1) > 0.01 {
		t.Errorf("σ(0.001,0.002) = %v, want ≈1", s)
	}
	// Cap at 10.
	if s := Sigma(0, 0.999); s != SigmaCap {
		t.Errorf("σ cap = %v, want %v", s, SigmaCap)
	}
	if s := Sigma(0.5, 1); s != SigmaCap {
		t.Errorf("σ with dead 40 MHz = %v, want cap", s)
	}
}

func TestSigmaAtSweepShape(t *testing.T) {
	// Fig 5 shape: sweeping SNR from very low to high, σ starts ≈1,
	// rises above 2 in a window, then returns to ≈1.
	mc := ModCod{QPSK, Rate34}
	sawLow, sawHigh, sawSettle := false, false, false
	for snr := units.DB(-12); snr <= 30; snr += 0.25 {
		s := SigmaAt(mc, snr, DefaultPacketSizeBytes)
		switch {
		case !sawLow:
			if math.Abs(s-1) < 0.1 {
				sawLow = true
			}
		case !sawHigh:
			if s >= 2 {
				sawHigh = true
			}
		case !sawSettle:
			if math.Abs(s-1) < 0.05 {
				sawSettle = true
			}
		}
	}
	if !sawLow || !sawHigh || !sawSettle {
		t.Errorf("σ sweep shape: low=%v high=%v settle=%v", sawLow, sawHigh, sawSettle)
	}
}

func TestMCSTable(t *testing.T) {
	table := MCSTable()
	if len(table) != 16 {
		t.Fatalf("MCS table has %d entries, want 16", len(table))
	}
	for i, m := range table {
		if m.Index != i {
			t.Errorf("MCS %d has index %d", i, m.Index)
		}
	}
	if table[7].Streams != 1 || table[8].Streams != 2 {
		t.Error("stream split wrong between MCS 7 and 8")
	}
	if _, ok := MCSByIndex(16); ok {
		t.Error("MCS 16 should not exist")
	}
	if m, ok := MCSByIndex(15); !ok || m.Modulation != QAM64 || m.Rate != Rate56 {
		t.Errorf("MCS 15 = %v", m)
	}
}

func TestNominalRatesMatchStandard(t *testing.T) {
	cases := []struct {
		idx     int
		w       spectrum.Width
		shortGI bool
		want    float64
	}{
		{0, spectrum.Width20, false, 6.5},
		{7, spectrum.Width20, false, 65},
		{7, spectrum.Width20, true, 72.2},
		{7, spectrum.Width40, false, 135},
		{15, spectrum.Width40, true, 300},
		{15, spectrum.Width20, false, 130},
	}
	for _, c := range cases {
		m, _ := MCSByIndex(c.idx)
		got := NominalRateMbps(m, c.w, c.shortGI)
		if math.Abs(got-c.want) > 0.3 {
			t.Errorf("MCS%d %v shortGI=%v = %v Mbps, want %v", c.idx, c.w, c.shortGI, got, c.want)
		}
	}
}

func TestNominalRate40MoreThanDouble(t *testing.T) {
	// "the nominal bit rates with 40MHz are slightly higher than double
	// of their 20 MHz counterparts".
	for _, m := range MCSTable() {
		r20 := NominalRateMbps(m, spectrum.Width20, false)
		r40 := NominalRateMbps(m, spectrum.Width40, false)
		if r40 <= 2*r20 {
			t.Errorf("%v: 40 MHz rate %v not above double the 20 MHz rate %v", m, r40, r20)
		}
		if r40 > 2.2*r20 {
			t.Errorf("%v: 40 MHz rate %v implausibly high vs %v", m, r40, r20)
		}
	}
}

func TestDataSubcarriers(t *testing.T) {
	if DataSubcarriers(spectrum.Width20) != 52 || DataSubcarriers(spectrum.Width40) != 108 {
		t.Error("data subcarrier counts wrong")
	}
	if UsedSubcarriers(spectrum.Width20) != 56 || UsedSubcarriers(spectrum.Width40) != 114 {
		t.Error("used subcarrier counts wrong")
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{QPSK.String(), "QPSK"},
		{DQPSK.String(), "DQPSK"},
		{QAM16.String(), "16QAM"},
		{QAM64.String(), "64QAM"},
		{BPSK.String(), "BPSK"},
		{Modulation(9).String(), "Modulation(9)"},
		{Rate12.String(), "1/2"},
		{Rate23.String(), "2/3"},
		{Rate34.String(), "3/4"},
		{Rate56.String(), "5/6"},
		{CodeRate(9).String(), "CodeRate(9)"},
		{ModCod{QPSK, Rate34}.String(), "QPSK 3/4"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	m, _ := MCSByIndex(7)
	if s := m.String(); s != "MCS7(64QAM 5/6 x1)" {
		t.Errorf("MCS string = %q", s)
	}
	if mc := m.ModCod(); mc.Modulation != QAM64 || mc.Rate != Rate56 {
		t.Errorf("ModCod = %v", mc)
	}
}

func TestLinkSNRVsSubcarrierSNR(t *testing.T) {
	// LinkSNR (wideband) and SubcarrierSNR differ by a small constant at
	// 20 MHz: the per-tone split (−10·log10(56) ≈ −17.5 dB) almost
	// exactly offsets the narrower noise bandwidth (+18.1 dB), leaving
	// ≈−0.6 dB.
	rx := units.DBm(-70)
	link := float64(LinkSNR(rx, spectrum.Width20))
	sub := float64(SubcarrierSNR(rx, spectrum.Width20))
	if d := link - sub; d < -1 || d > 0 {
		t.Errorf("wideband-vs-subcarrier SNR delta = %v, want ≈-0.6", d)
	}
}

func TestUncodedPERAndRxSubcarrierSNR(t *testing.T) {
	// UncodedPER composes UncodedBER with Eq. 6.
	snr := units.DB(5)
	want := PERFromBER(UncodedBER(QPSK, snr), 1500)
	if got := UncodedPER(QPSK, snr, 1500); got != want {
		t.Errorf("UncodedPER = %v, want %v", got, want)
	}
	// RxSubcarrierSNR composes link budget with the subcarrier split.
	got := RxSubcarrierSNR(20, 50, spectrum.Width20)
	want2 := SubcarrierSNR(units.DBm(20).Minus(50), spectrum.Width20)
	if got != want2 {
		t.Errorf("RxSubcarrierSNR = %v, want %v", got, want2)
	}
}

func TestFadedPERProperties(t *testing.T) {
	mc := ModCod{QPSK, Rate34}
	// σ=0 degenerates to the AWGN PER.
	if got, want := CodedPERFaded(mc, 5, 1500, 0), CodedPER(mc, 5, 1500); got != want {
		t.Errorf("zero-fade coded PER = %v, want %v", got, want)
	}
	if got, want := UncodedPERFaded(QPSK, 5, 1500, 0), UncodedPER(QPSK, 5, 1500); got != want {
		t.Errorf("zero-fade uncoded PER = %v, want %v", got, want)
	}
	// Fading widens the waterfall: above the AWGN cliff the faded PER is
	// higher (deep fades leak errors in), far below it is lower.
	above := 8.0 // AWGN PER ≈ 0 here for QPSK 3/4
	if CodedPERFaded(mc, units.DB(above), 1500, 2) <= CodedPER(mc, units.DB(above), 1500) {
		t.Error("fading should raise PER above the AWGN cliff")
	}
	// Monotone nonincreasing in SNR.
	prev := 1.1
	for snr := -5.0; snr <= 20; snr += 0.5 {
		p := CodedPERFaded(mc, units.DB(snr), 1500, DefaultFadeSigmaDB)
		if p > prev+1e-12 {
			t.Fatalf("faded PER rose at %v dB", snr)
		}
		prev = p
	}
	// Uncoded counterpart behaves too.
	if UncodedPERFaded(QPSK, 20, 1500, 2) > 0.01 {
		t.Error("uncoded faded PER should collapse at high SNR")
	}
}

func TestSubcarrierTxPowerAndShannonEdges(t *testing.T) {
	// BitsPerSymbol default-path panic.
	defer func() {
		if recover() == nil {
			t.Error("unknown modulation BitsPerSymbol should panic")
		}
	}()
	Modulation(42).BitsPerSymbol()
}

func TestMCSTableIsACopy(t *testing.T) {
	table := MCSTable()
	table[3].Streams = 9
	if m, _ := MCSByIndex(3); m.Streams != 1 {
		t.Errorf("mutating MCSTable's result changed MCSByIndex(3): %v", m)
	}
	if again := MCSTable(); again[3].Streams != 1 {
		t.Errorf("mutating MCSTable's result changed the next call: %v", again[3])
	}
}

func TestCodedBERUnknownRatePanics(t *testing.T) {
	for _, r := range []CodeRate{-1, Rate56 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CodedBER with code rate %d should panic", int(r))
				}
			}()
			CodedBER(QPSK, r, 10)
		}()
	}
}
