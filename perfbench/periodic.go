package main

// Workload periodic: the paper's periodic mode (stream off). Each round
// boots a fleet of 1000 v2 agents, in clusters of 4 mutually-hearing APs
// with 2 clients each, which report once. Then a cold Server.Reallocate,
// an open-loop report phase of one second at 5000 reports/s in which 30%
// of the reports carry a changed client SNR (the rest are unchanged, which
// v2 agents collapse to report-same frames), and a warm Reallocate on the
// changed view. A run makes enough rounds to fill its time, each on
// inputs of its own drawn from the seed.
//
// Why: ingest (agent encode, framing, shards) does nearly all the work in
// the report phase, while the dense per-pass rebuild (view, estimator,
// association, allocation) dominates the passes, so the two are timed
// apart: report_cpu_us prices ingest, converge_s and repass_s price the
// pass.

import (
	"fmt"
	"runtime"
	"time"
)

const (
	periodicAPs     = 1000
	periodicRate    = 5000.0 // reports per second, whole fleet
	periodicPhase   = time.Second
	periodicChanged = 0.30
	// periodicRound is about how long one round takes, in seconds.
	periodicRound = 5.0
)

func runPeriodic(p params) (*outcome, error) {
	o := newOutcome()
	spans := p.spanLog()
	o.spans = spans
	fo := fleetOptions{seed: p.seed}
	if p.traced {
		fo.traceRing = 64
	}
	var setups, colds, repass, goodputs []float64
	var joins, decide [][]float64
	var cpu, phases time.Duration
	var sent, applied, lost, shed float64
	var passes, stragglers, unknown, outOfBand int
	var digests []string
	err := each(p.rounds(periodicRound), func(round int) error {
		spans.setRound(round)
		in := genPeriodic(p.seed, round, periodicAPs, periodicRate, periodicPhase, periodicChanged)
		runtime.GC() // each round starts from a collected heap
		t0 := time.Now()
		f, err := bootFleet(in.Boot, fo)
		if err != nil {
			return err
		}
		defer f.close()
		setups = append(setups, time.Since(t0).Seconds())
		var mem *memWatch
		if p.traced {
			mem = startMemWatch()
		}
		ms := f.all()
		cold, err := f.pass(ms, spans, passLimit)
		if err != nil {
			return err
		}
		colds = append(colds, cold.held.Sub(cold.start).Seconds())
		// Every AP gets its first channel from the cold pass.
		joins = append(joins, millis(cold.gotAt))

		// Open-loop report phase.
		regA := regValues(f.reg)
		cpu0 := cpuTime()
		ph := runSchedule(in.Sends, ms, spans)
		n := float64(len(in.Sends))
		accounted := func(r map[string]float64) float64 {
			return delta(regA, r, "acorn_ctlnet_reports_total") +
				delta(regA, r, "acorn_ctlnet_shard_reports_coalesced_total") +
				delta(regA, r, "acorn_ctlnet_agent_reports_coalesced_total") +
				delta(regA, r, "acorn_ctlnet_shard_reports_shed_total")
		}
		regB := waitRegistry(f, func(r map[string]float64) bool { return accounted(r) >= n }, 10*time.Second)
		phases += time.Since(ph.start)
		cpu += cpuTime() - cpu0
		sent += n
		applied += delta(regA, regB, "acorn_ctlnet_reports_total")
		shed += delta(regA, regB, "acorn_ctlnet_shard_reports_shed_total")
		lost += max(n-accounted(regB), 0)

		// A warm pass on the changed view.
		warm, err := f.pass(ms, spans, passLimit)
		if err != nil {
			return err
		}
		repass = append(repass, warm.held.Sub(warm.start).Seconds())
		decide = append(decide, millis(warm.holdAt))

		regEnd := regValues(f.reg)
		assign := f.srv.Assignments()
		digests = append(digests, assignmentDigest(assign))
		goodputs = append(goodputs, regEnd["acorn_core_goodput_mbps"])
		passes += 2
		stragglers += cold.stragglers + warm.stragglers
		unknown += len(ms) - f.srv.KnownAgents()
		outOfBand += len(ms) - inBand(assign, ms)
		if p.traced {
			mem.finish(o.layer)
			ingestLayers(o, spans, ph, regA, regB, n)
			// Pass and core counters cover the round's whole fleet life,
			// its cold pass included.
			ctlnetLayers(o, f, spans, []passTiming{cold}, time.Time{}, nil, regEnd)
			coreLayers(o.layer, nil, regEnd)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rounds := len(setups)
	o.check("every agent holds its assignment after every pass", stragglers == 0,
		fmt.Sprintf("%d stragglers over %d passes of %d agents", stragglers, passes, periodicAPs))
	o.check("no membership lost", unknown == 0, fmt.Sprintf("%d unknown over %d rounds", unknown, rounds))
	o.check("every report applied or coalesced", lost == 0, fmt.Sprintf("%.0f of %.0f unaccounted", lost, sent))
	o.check("no report shed", shed == 0, fmt.Sprintf("%.0f shed", shed))
	o.check("every AP holds an in-band channel", outOfBand == 0,
		fmt.Sprintf("%d out of band over %d rounds", outOfBand, rounds))
	o.digest = digest(digests)
	o.attempted = int(sent) + periodicAPs*passes
	o.failed = int(lost+shed) + stragglers

	o.e2e["setup_s"] = median(setups)
	o.e2e["converge_s"] = median(colds)
	o.e2e["repass_s"] = median(repass)
	o.series["setup_s"] = setups
	o.series["converge_s"] = colds
	o.series["repass_s"] = repass
	o.e2e["report_cpu_us"] = float64(cpu.Microseconds()) / applied
	o.e2e["events_per_s"] = (sent - lost) / phases.Seconds()
	o.e2e["join_p50_ms"] = medianQuantile(joins, 0.50)
	o.e2e["join_p95_ms"] = medianQuantile(joins, 0.95)
	o.e2e["decide_p50_ms"] = medianQuantile(decide, 0.50)
	o.e2e["decide_p99_ms"] = medianQuantile(decide, 0.99)
	o.e2e["goodput_mbps"] = median(goodputs)
	o.samples["rounds"] = rounds
	o.samples["join"] = count(joins)
	o.samples["decide"] = count(decide)
	o.samples["reports"] = int(sent)
	return o, nil
}
