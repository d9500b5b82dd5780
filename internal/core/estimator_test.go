package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"acorn/internal/ratecontrol"
	"acorn/internal/spectrum"
	"acorn/internal/stats"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// TestClientPERUsesRequestedWidth pins the width handling of ClientPER: the
// reported PER must come from the rate a card would select *at the requested
// width* (calibrated SNR, width-matched MCS evaluation). A regression once
// calibrated the SNR for 40 MHz but then selected the rate as if on a 20 MHz
// channel, reporting the wrong residual PER for every bonded link.
func TestClientPERUsesRequestedWidth(t *testing.T) {
	n, clients := mixedNetwork()
	est := NewEstimator(n)

	for _, ap := range n.APs {
		for _, c := range clients {
			for _, w := range []spectrum.Width{spectrum.Width20, spectrum.Width40} {
				want := ratecontrol.Best(est.LinkSNR(ap.ID, c.ID, w), w, n.PacketBytes).PER
				if got := est.ClientPER(ap.ID, c.ID, w); got != want {
					t.Fatalf("ClientPER(%s, %s, %v) = %v, want %v", ap.ID, c.ID, w, got, want)
				}
			}
		}
	}

	// The pin above is only meaningful if width-mismatched selection can
	// actually change the reported PER; sweep the SNR range to show at least
	// one operating point where it does.
	discriminates := false
	for snr := -5.0; snr <= 45; snr += 0.25 {
		right := ratecontrol.Best(units.DB(snr), spectrum.Width40, n.PacketBytes).PER
		wrong := ratecontrol.Best(units.DB(snr), spectrum.Width20, n.PacketBytes).PER
		if right != wrong {
			discriminates = true
			break
		}
	}
	if !discriminates {
		t.Fatal("no SNR where width-mismatched rate selection changes the PER; the pin is vacuous")
	}
}

// eagerOracle is the estimator as it was before link measurement went on
// demand: every AP×client reference SNR measured up front into one table,
// with the same noise, width-calibration, delay and throughput expressions.
// The lazy Estimator must reproduce it bit for bit.
type eagerOracle struct {
	n     *wlan.Network
	snr   map[linkKey]units.DB
	noise float64
}

func newEagerOracle(n *wlan.Network, noise float64) *eagerOracle {
	o := &eagerOracle{n: n, snr: make(map[linkKey]units.DB), noise: noise}
	for _, ap := range n.APs {
		for _, c := range n.Clients {
			o.snr[linkKey{ap.ID, c.ID}] = n.ClientSNR20(ap, c)
		}
	}
	return o
}

func (o *eagerOracle) linkSNR(apID, clientID string, w spectrum.Width) units.DB {
	snr, ok := o.snr[linkKey{apID, clientID}]
	if !ok {
		return units.DB(math.Inf(-1))
	}
	if o.noise != 0 {
		snr += units.DB(o.noise * noiseUnit(apID, clientID))
	}
	return snrForWidth(snr, w)
}

func (o *eagerOracle) clientDelay(apID, clientID string, w spectrum.Width) float64 {
	return 1 / ratecontrol.Best(o.linkSNR(apID, clientID, w), w, o.n.PacketBytes).GoodputMbps
}

func (o *eagerOracle) networkThroughput(cfg *wlan.Config) float64 {
	populated := make(map[string]int)
	for _, apID := range cfg.Assoc {
		populated[apID]++
	}
	var total float64
	for _, ap := range o.n.APs {
		k := populated[ap.ID]
		if k == 0 {
			continue
		}
		ch := cfg.Channels[ap.ID]
		var atd float64
		for _, c := range o.n.Clients {
			if cfg.Assoc[c.ID] == ap.ID {
				atd += o.clientDelay(ap.ID, c.ID, ch.Width)
			}
		}
		contenders := 0
		for _, other := range o.n.APs {
			if other.ID != ap.ID && populated[other.ID] > 0 &&
				ch.Conflicts(cfg.Channels[other.ID]) && o.n.Contend(ap, other, cfg) {
				contenders++
			}
		}
		if atd > 0 {
			total += float64(k) * (1 / float64(contenders+1)) / atd
		}
	}
	return total
}

// TestEstimatorLazyMatchesEagerOracle pins the on-demand estimator against
// the eager table on random networks with obstruction losses, with and
// without measurement noise, for every AP×client pair at both widths —
// whether the estimator is fresh, already warm, or vended by the
// association engine from its shared memo. IDs unknown at construction
// price as −Inf, including a client that joins the network afterwards.
func TestEstimatorLazyMatchesEagerOracle(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for seed := int64(1); seed <= 3; seed++ {
		n, clients := scaleNetwork(16, 4, seed)
		cfg := wlan.NewConfig()
		rng := stats.NewRand(seed)
		RandomInitial(n, cfg, rng.Intn)
		for i, c := range clients {
			if i%5 != 4 {
				cfg.SetAssoc(c.ID, n.APs[rng.Intn(len(n.APs))].ID)
			}
		}
		for _, noise := range []float64{0, 1.5} {
			oracle := newEagerOracle(n, noise)
			lazy := NewEstimator(n)
			lazy.MeasurementNoiseDB = noise
			var vended *Estimator
			if noise == 0 {
				e := newAssocEngine(n, cfg)
				if e == nil {
					t.Fatal("engine rejected the fixture")
				}
				vended = e.vendEstimator()
			}
			// Price the whole network first on the lazy side, so the
			// per-pair checks below read a partly warm memo.
			if got, want := lazy.NetworkThroughput(cfg), oracle.networkThroughput(cfg); !same(got, want) {
				t.Fatalf("seed %d noise %g: NetworkThroughput %v, oracle %v", seed, noise, got, want)
			}
			ests := []*Estimator{lazy}
			if vended != nil {
				ests = append(ests, vended)
			}
			for _, est := range ests {
				for _, ap := range n.APs {
					for _, c := range clients {
						for _, w := range []spectrum.Width{spectrum.Width20, spectrum.Width40} {
							if got, want := est.LinkSNR(ap.ID, c.ID, w), oracle.linkSNR(ap.ID, c.ID, w); !same(float64(got), float64(want)) {
								t.Fatalf("seed %d noise %g: LinkSNR(%s,%s,%v) = %v, oracle %v", seed, noise, ap.ID, c.ID, w, got, want)
							}
							ch := spectrum.Channel{Width: w}
							if got, want := est.ClientDelay(ap.ID, c.ID, ch), oracle.clientDelay(ap.ID, c.ID, w); !same(got, want) {
								t.Fatalf("seed %d noise %g: ClientDelay(%s,%s,%v) = %v, oracle %v", seed, noise, ap.ID, c.ID, w, got, want)
							}
						}
					}
				}
				if got, want := est.NetworkThroughput(cfg), oracle.networkThroughput(cfg); !same(got, want) {
					t.Fatalf("seed %d noise %g: warm NetworkThroughput %v, oracle %v", seed, noise, got, want)
				}
				for _, pair := range [][2]string{{"nope", clients[0].ID}, {n.APs[0].ID, "nope"}} {
					if got := est.LinkSNR(pair[0], pair[1], spectrum.Width20); !math.IsInf(float64(got), -1) {
						t.Fatalf("LinkSNR(%s,%s) = %v for an unknown ID, want -Inf", pair[0], pair[1], got)
					}
					if got, want := est.ClientDelay(pair[0], pair[1], spectrum.Channel{Width: spectrum.Width20}),
						oracle.clientDelay(pair[0], pair[1], spectrum.Width20); !same(got, want) {
						t.Fatalf("ClientDelay(%s,%s) = %v for an unknown ID, oracle %v", pair[0], pair[1], got, want)
					}
				}
			}
			// A client that joins after construction is unknown to the
			// estimator, as it was absent from the eager table.
			late := &wlan.Client{ID: "late", Pos: n.APs[0].Pos}
			n.Clients = append(n.Clients, late)
			if got := lazy.LinkSNR(n.APs[0].ID, late.ID, spectrum.Width20); !math.IsInf(float64(got), -1) {
				t.Fatalf("LinkSNR for a client added after construction = %v, want -Inf", got)
			}
			n.RemoveClient(late.ID)
		}
	}
}

// TestVendedEstimatorPricesReincarnation moves a client through the stream
// controller (same ID, new object, new geometry) after the engine's shared
// link memo has priced it, and requires the next vended estimator to price
// the new geometry — never the old incarnation's SNR or delay. A second
// reincarnation goes around the engine entirely (straight into the
// network's client list) and must be priced fresh all the same.
func TestVendedEstimatorPricesReincarnation(t *testing.T) {
	ctrl, n := streamFixture(t, 9, 7)
	vc := newVclock()
	s := NewStreamController(ctrl, StreamOptions{Now: vc.now})
	for i := 0; i < 18; i++ {
		s.Offer(Event{Kind: EventArrive, Client: clientNear(n, i, fmt.Sprintf("c%02d", i))})
	}
	vc.advance(50 * time.Millisecond)
	s.Pump()
	s.FullPass()

	check := func(stage string, u *wlan.Client) {
		t.Helper()
		e := ctrl.engineFor()
		if e == nil {
			t.Fatalf("%s: no association engine", stage)
		}
		est := e.vendEstimator()
		fresh := newEagerOracle(n, 0)
		for _, ap := range n.APs {
			for _, w := range []spectrum.Width{spectrum.Width20, spectrum.Width40} {
				got, want := est.LinkSNR(ap.ID, u.ID, w), fresh.linkSNR(ap.ID, u.ID, w)
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("%s: LinkSNR(%s,%s,%v) = %v, new geometry gives %v", stage, ap.ID, u.ID, w, got, want)
				}
				gotD := est.ClientDelay(ap.ID, u.ID, spectrum.Channel{Width: w})
				if wantD := fresh.clientDelay(ap.ID, u.ID, w); math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("%s: ClientDelay(%s,%s,%v) = %v, new geometry gives %v", stage, ap.ID, u.ID, w, gotD, wantD)
				}
			}
		}
	}

	old := n.Client("c04")
	home := ctrl.ConfigView().Assoc[old.ID]
	oldSNR := n.ClientSNR20(n.AP(home), old)
	check("before move", old)

	moved := &wlan.Client{ID: old.ID, Pos: old.Pos, ExtraLoss: map[string]units.DB{home: 9}}
	s.Offer(Event{Kind: EventReport, Client: moved})
	vc.advance(50 * time.Millisecond)
	s.Pump()
	if n.Client(old.ID) != moved {
		t.Fatal("stream did not install the new incarnation")
	}
	if n.ClientSNR20(n.AP(home), moved) == oldSNR {
		t.Fatal("fixture: the move left the home link unchanged")
	}
	check("after stream move", moved)

	again := &wlan.Client{ID: old.ID, Pos: old.Pos, ExtraLoss: map[string]units.DB{home: 17}}
	n.RemoveClient(old.ID)
	n.Clients = append(n.Clients, again)
	check("after direct replacement", again)
}
