package main

// Seeded input generators. Every workload's inputs are a pure function of
// the seed and the workload's size parameters: the program under test only
// ever receives what these functions return, so one seed replays
// byte-identical reports, schedules and event traces (gen_test.go).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"acorn/internal/ctlnet"
	"acorn/internal/rf"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// roundRand returns the random source of one round's inputs: every
// (seed, round) pair draws its own values, so no round replays another's
// client SNRs or positions into the program's process-wide caches.
func roundRand(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
}

// apName names AP i of a generated fleet.
func apName(i int) string { return fmt.Sprintf("ap-%05d", i) }

// randomSNR draws a client's 20 MHz reference SNR in dB.
func randomSNR(rng *rand.Rand) float64 { return 18 + 14*rng.Float64() }

// fleetReports builds the boot report of APs [0, n): clientsPerAP clients
// with seeded SNRs, and full mutual hearing inside clusters of cluster APs
// (the interference graph is a disjoint union of cliques).
func fleetReports(rng *rand.Rand, n, cluster, clientsPerAP int) []ctlnet.Report {
	reps := make([]ctlnet.Report, n)
	for i := range reps {
		rep := ctlnet.Report{APID: apName(i)}
		for c := 0; c < clientsPerAP; c++ {
			rep.Clients = append(rep.Clients, ctlnet.ClientObs{
				ClientID: fmt.Sprintf("c%d", c),
				SNR20dB:  randomSNR(rng),
			})
		}
		lo := i / cluster * cluster
		for p := lo; p < lo+cluster && p < n; p++ {
			if p != i {
				rep.Hears = append(rep.Hears, apName(p))
			}
		}
		reps[i] = rep
	}
	return reps
}

// send is one scheduled report: at offset At from the phase start, AP
// index AP sends Rep. Changed marks a report whose content differs from
// the AP's previous one (v2 agents collapse the others to report-same
// frames).
type send struct {
	At      time.Duration
	AP      int
	Changed bool
	Rep     ctlnet.Report
}

// periodicInput is the periodic workload's input: the fleet's boot
// reports and the open-loop report phase schedule.
type periodicInput struct {
	Boot  []ctlnet.Report
	Sends []send
}

// genPeriodic builds one round's input: a fleet of aps APs in clusters of
// 4 with 2 clients each, and a report phase of dur at a fixed aggregate rate. Sends cycle
// through a seeded permutation of the fleet; each carries a changed client
// SNR with probability changedFrac, otherwise it repeats the AP's last
// report.
func genPeriodic(seed int64, round, aps int, rate float64, dur time.Duration, changedFrac float64) periodicInput {
	rng := roundRand(seed, round)
	in := periodicInput{Boot: fleetReports(rng, aps, 4, 2)}
	cur := make([]ctlnet.Report, aps)
	copy(cur, in.Boot)
	order := rng.Perm(aps)
	n := int(rate * dur.Seconds())
	in.Sends = make([]send, n)
	for k := range in.Sends {
		ap := order[k%aps]
		s := send{At: time.Duration(float64(k) / rate * float64(time.Second)), AP: ap}
		if rng.Float64() < changedFrac {
			rep := cur[ap]
			rep.Clients = append([]ctlnet.ClientObs(nil), rep.Clients...)
			rep.Clients[rng.Intn(len(rep.Clients))].SNR20dB = randomSNR(rng)
			cur[ap] = rep
			s.Changed = true
		}
		s.Rep = cur[ap]
		in.Sends[k] = s
	}
	return in
}

// joinInput is the stream-join workload's input: the converged base
// fleet, its unchanged-report resend schedule, and the joining APs.
type joinInput struct {
	Base    []ctlnet.Report
	Resends []send
	Joins   []send
}

// genJoin builds one round's input: a base fleet of base APs (clusters of 4, 2 clients each),
// a resend schedule in which every base AP repeats its report every
// interval jittered ±50% over dur, and joins new APs due at evenly spaced
// offsets across dur. Each joining AP hears every member of one base
// cluster; joins deal the clusters out in a seeded order, so every seed
// grows the same number of clusters by the same amount and the pass cost
// does not hinge on how the draw happened to pile joins up.
func genJoin(seed int64, round, base, joins int, interval, dur time.Duration) joinInput {
	rng := roundRand(seed, round)
	in := joinInput{Base: fleetReports(rng, base, 4, 2)}
	for ap := 0; ap < base; ap++ {
		at := time.Duration(rng.Int63n(int64(interval)))
		for at < dur {
			in.Resends = append(in.Resends, send{At: at, AP: ap, Rep: in.Base[ap]})
			at += interval/2 + time.Duration(rng.Int63n(int64(interval)))
		}
	}
	sort.SliceStable(in.Resends, func(a, b int) bool { return in.Resends[a].At < in.Resends[b].At })
	order := rng.Perm((base + 3) / 4)
	in.Joins = make([]send, joins)
	for j := range in.Joins {
		ap := base + j
		rep := ctlnet.Report{APID: apName(ap)}
		for c := 0; c < 2; c++ {
			rep.Clients = append(rep.Clients, ctlnet.ClientObs{
				ClientID: fmt.Sprintf("c%d", c),
				SNR20dB:  randomSNR(rng),
			})
		}
		cl := order[j%len(order)]
		for p := cl * 4; p < cl*4+4 && p < base; p++ {
			rep.Hears = append(rep.Hears, apName(p))
		}
		at := time.Duration(float64(dur) * (float64(j) + 0.5) / float64(joins))
		in.Joins[j] = send{At: at, AP: ap, Changed: true, Rep: rep}
	}
	return in
}

// Event kinds of the in-process trace.
const (
	kindNoop  = "noop"  // the client's current incarnation re-reported
	kindMove  = "move"  // a new incarnation at a moved position
	kindChurn = "churn" // the client departs and a new one arrives
)

// traceEvent is one entry of the in-process event trace, concerning
// client slot Slot. Client is the slot's new incarnation: the same ID at a
// moved position for a move, a fresh client for churn, nil for a no-op
// (which re-reports the incarnation the slot already holds).
type traceEvent struct {
	Kind   string
	Slot   int
	Client *wlan.Client `json:",omitempty"`
}

// inprocInput is the inproc-stream workload's input: the AP grid, the
// clients admitted at setup, and the event trace.
type inprocInput struct {
	APs     []*wlan.AP
	Clients []*wlan.Client
	Trace   []traceEvent
}

// genInproc builds aps APs on a square grid of 60 m pitch, clients
// clients scattered around home APs dealt out evenly (so every seed loads
// the APs alike), and one round's trace of events with exactly the given
// no-op and move shares (the rest is churn, whose newcomers land near
// random APs). The grid and the clients depend on the seed alone; the
// trace on the seed and the round.
func genInproc(seed int64, round, aps, clients, events int, noopFrac, moveFrac float64) inprocInput {
	rng := rand.New(rand.NewSource(seed))
	const pitch = 60.0
	cols := int(math.Ceil(math.Sqrt(float64(aps))))
	in := inprocInput{}
	for i := 0; i < aps; i++ {
		in.APs = append(in.APs, &wlan.AP{
			ID: fmt.Sprintf("ap%04d", i),
			Pos: rf.Point{
				X: float64(i%cols)*pitch + rng.Float64()*8,
				Y: float64(i/cols)*pitch + rng.Float64()*8,
			},
			TxPower: 18,
		})
	}
	near := func(id string, ap *wlan.AP) *wlan.Client {
		c := &wlan.Client{ID: id, Pos: rf.Point{
			X: ap.Pos.X + (rng.Float64()-0.5)*50,
			Y: ap.Pos.Y + (rng.Float64()-0.5)*50,
		}}
		if rng.Float64() < 0.33 {
			c.ExtraLoss = map[string]units.DB{ap.ID: units.DB(6 + rng.Float64()*18)}
		}
		return c
	}
	cur := make([]*wlan.Client, clients)
	for k := range cur {
		cur[k] = near(fmt.Sprintf("u%06d", k), in.APs[k%aps])
		in.Clients = append(in.Clients, cur[k])
	}
	rng = roundRand(seed, round)
	// Every seed gets exactly the given shares, in a seeded order, so the
	// decision percentiles do not hinge on how the draw happened to mix
	// the kinds.
	kinds := make([]string, events)
	noops := int(math.Round(noopFrac * float64(events)))
	moves := int(math.Round(moveFrac * float64(events)))
	for e := range kinds {
		switch {
		case e < noops:
			kinds[e] = kindNoop
		case e < noops+moves:
			kinds[e] = kindMove
		default:
			kinds[e] = kindChurn
		}
	}
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	next := clients
	for e := 0; e < events; e++ {
		ev := traceEvent{Kind: kinds[e], Slot: rng.Intn(clients)}
		switch ev.Kind {
		case kindNoop:
		case kindMove:
			old := cur[ev.Slot]
			ev.Client = &wlan.Client{ID: old.ID, ExtraLoss: old.ExtraLoss, Pos: rf.Point{
				X: old.Pos.X + (rng.Float64()-0.5)*30,
				Y: old.Pos.Y + (rng.Float64()-0.5)*30,
			}}
		case kindChurn:
			ev.Client = near(fmt.Sprintf("u%06d", next), in.APs[rng.Intn(aps)])
			next++
		}
		if ev.Client != nil {
			cur[ev.Slot] = ev.Client
		}
		in.Trace = append(in.Trace, ev)
	}
	return in
}

// digest is the hex SHA-256 of v's JSON encoding: a fingerprint of an
// input trace or a final configuration.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // every digested type is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
