package mac

import (
	"math"
	"testing"
	"testing/quick"

	"acorn/internal/phy"
	"acorn/internal/spectrum"
)

func TestFrameOverheadPositive(t *testing.T) {
	oh := FrameOverhead()
	// DIFS + 7.5 slots + preamble + SIFS + ACK ≈ 178 µs.
	if oh < 150e-6 || oh > 220e-6 {
		t.Errorf("FrameOverhead = %v s, want ≈178 µs", oh)
	}
}

func TestFrameAirtimeDecreasesWithRate(t *testing.T) {
	t1 := FrameAirtime(1500, 6.5)
	t2 := FrameAirtime(1500, 65)
	t3 := FrameAirtime(1500, 270)
	if !(t1 > t2 && t2 > t3) {
		t.Errorf("airtime not decreasing with rate: %v %v %v", t1, t2, t3)
	}
	if !math.IsInf(FrameAirtime(1500, 0), 1) {
		t.Error("zero rate should give infinite airtime")
	}
}

func TestExpectedAttempts(t *testing.T) {
	if got := ExpectedAttempts(0); got != 1 {
		t.Errorf("ExpectedAttempts(0) = %v, want 1", got)
	}
	if got := ExpectedAttempts(1); got != MaxRetries+1 {
		t.Errorf("ExpectedAttempts(1) = %v, want %d", got, MaxRetries+1)
	}
	// PER 0.5: E ≈ (1−0.5^8)/0.5 ≈ 1.992.
	if got := ExpectedAttempts(0.5); math.Abs(got-1.992) > 0.01 {
		t.Errorf("ExpectedAttempts(0.5) = %v, want ≈1.992", got)
	}
}

func TestExpectedAttemptsMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x := float64(a) / 65535
		y := float64(b) / 65535
		if x > y {
			x, y = y, x
		}
		return ExpectedAttempts(x) <= ExpectedAttempts(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeliveryProbability(t *testing.T) {
	if got := DeliveryProbability(0); got != 1 {
		t.Errorf("DeliveryProbability(0) = %v", got)
	}
	if got := DeliveryProbability(1); got != 0 {
		t.Errorf("DeliveryProbability(1) = %v", got)
	}
	// With 8 attempts at PER 0.5: 1 − 1/256.
	if got := DeliveryProbability(0.5); math.Abs(got-(1-1.0/256)) > 1e-9 {
		t.Errorf("DeliveryProbability(0.5) = %v", got)
	}
}

func TestClientDelayReciprocalOfCleanGoodput(t *testing.T) {
	// On a clean link the delay is airtime per Mbit.
	d := ClientDelay(1500, 65, 0)
	goodput := 1 / d
	if goodput < 40 || goodput > 65 {
		t.Errorf("clean 65 Mbps goodput = %v, want between 40 and 65", goodput)
	}
	// Loss inflates delay.
	if ClientDelay(1500, 65, 0.5) <= d {
		t.Error("lossy link should have larger delay")
	}
	if got := ClientDelay(1500, 65, 1); got != MaxClientDelay {
		t.Errorf("dead link delay = %v, want the MaxClientDelay cap", got)
	}
}

func TestCellAnomaly(t *testing.T) {
	// One fast (d=0.01 s/Mbit ⇒ 100 Mbps alone) and one slow client
	// (d=0.2 ⇒ 5 Mbps alone): both get the same per-client throughput,
	// dominated by the slow one — the performance anomaly.
	cell := Cell{Delays: []float64{0.01, 0.2}, AccessShare: 1}
	per := cell.PerClientThroughput()
	want := 1 / 0.21
	if math.Abs(per-want) > 1e-9 {
		t.Errorf("per-client throughput = %v, want %v", per, want)
	}
	if agg := cell.AggregateThroughput(); math.Abs(agg-2*want) > 1e-9 {
		t.Errorf("aggregate = %v, want %v", agg, 2*want)
	}
	// Removing the slow client quadruples-plus the fast one's share.
	solo := Cell{Delays: []float64{0.01}, AccessShare: 1}
	if solo.PerClientThroughput() <= 10*per {
		t.Errorf("fast client alone %v should vastly exceed anomaly-bound %v",
			solo.PerClientThroughput(), per)
	}
}

func TestCellAccessShare(t *testing.T) {
	c1 := Cell{Delays: []float64{0.1}, AccessShare: 1}
	c3 := Cell{Delays: []float64{0.1}, AccessShare: 1.0 / 3}
	if math.Abs(c1.PerClientThroughput()-3*c3.PerClientThroughput()) > 1e-9 {
		t.Error("access share should scale throughput linearly")
	}
}

func TestCellEdgeCases(t *testing.T) {
	if (Cell{}).PerClientThroughput() != 0 {
		t.Error("empty cell should have zero throughput")
	}
	dead := Cell{Delays: []float64{MaxClientDelay}, AccessShare: 1}
	if dead.PerClientThroughput() > 0.01 {
		t.Error("cell with only a dead client should collapse to ~0")
	}
}

func TestCellAggregateAnomalyProperty(t *testing.T) {
	// Aggregate throughput never exceeds K × the best client's solo rate
	// and never falls below K × the worst client's share.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		delays := make([]float64, 0, len(raw))
		for _, r := range raw {
			delays = append(delays, 0.001+float64(r)/65535)
		}
		cell := Cell{Delays: delays, AccessShare: 1}
		agg := cell.AggregateThroughput()
		k := float64(len(delays))
		minD, maxD := delays[0], delays[0]
		for _, d := range delays {
			minD = math.Min(minD, d)
			maxD = math.Max(maxD, d)
		}
		return agg <= k/(k*minD)+1e-9 && agg >= k/(k*maxD)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPEfficiency(t *testing.T) {
	clean := TCPEfficiency(0)
	if math.Abs(clean-TCPBaseEfficiency) > 1e-9 {
		t.Errorf("clean-link TCP efficiency = %v, want %v", clean, TCPBaseEfficiency)
	}
	// Monotone nonincreasing in PER.
	prev := clean
	for per := 0.0; per <= 1.0; per += 0.01 {
		e := TCPEfficiency(per)
		if e > prev+1e-12 {
			t.Fatalf("TCP efficiency increased at PER %v", per)
		}
		prev = e
	}
	// TCP is more loss-sensitive than UDP: at a PER where UDP retries
	// still deliver most packets, TCP already loses a chunk.
	if TCPEfficiency(0.3) > 0.7*TCPBaseEfficiency {
		t.Errorf("TCP at PER 0.3 = %v, should be noticeably degraded", TCPEfficiency(0.3))
	}
	// Clamping.
	if TCPEfficiency(-1) != clean {
		t.Error("negative PER should clamp to 0")
	}
	if TCPEfficiency(2) != TCPEfficiency(1) {
		t.Error("PER above 1 should clamp")
	}
}

// TestGoodputBoundAtZeroPER pins the property the rate-control search
// prunes with: losses and retries never shorten the per-client delay, so
// the goodput an MCS reaches at PER 0 bounds its goodput at any PER.
func TestGoodputBoundAtZeroPER(t *testing.T) {
	pers := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-9, 0.5, math.Nextafter(1, 0), 1}
	for _, w := range []spectrum.Width{spectrum.Width20, spectrum.Width40} {
		for _, m := range phy.MCSTable() {
			rate := phy.NominalRateMbps(m, w, false)
			for _, pb := range []int{0, 64, 1500, 65535} {
				bound := 1 / ClientDelay(pb, rate, 0)
				for _, per := range pers {
					if g := 1 / ClientDelay(pb, rate, per); g > bound {
						t.Errorf("%v %v pb %d: goodput %v at PER %v above its PER-0 bound %v",
							m, w, pb, g, per, bound)
					}
				}
			}
		}
	}
}
