package main

// Workload stream-join: stream mode on. Each round boots a converged base
// fleet of 500 APs (clusters of 4, 2 clients each); over a two-second
// phase each base AP re-sends an unchanged report every ~10 s (jittered
// ±50%) and 40 new APs boot on a fixed open-loop schedule, each hearing
// one existing cluster; warm full passes close the round. A run makes
// enough rounds to fill its time, each on inputs of its own drawn from the
// seed, and join latencies are pooled over them. A join's latency runs from its due time until its
// agent first holds a channel.
//
// Why: it is the only workload whose latency crosses every ctlnet layer
// on the event-driven path (agent boot, wire, shard, dirty set, stream
// pass, gate, outbox). Every fresh report dirties its AP and every pass
// rebuilds the whole view, so passes run back to back; the resend
// interval keeps the load below saturation, where join latency is steady.

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"acorn/internal/spectrum"
)

const (
	joinBase     = 500
	joinCount    = 40 // joins per round, 20 per second of the phase
	joinPhase    = 2 * time.Second
	joinInterval = 10 * time.Second // base AP resend period
	joinWarm     = 2                // warm full passes per round
	// joinRound is about how long one round takes, in seconds.
	joinRound = 4.5
	// joinLimit bounds how long a join may wait for its first channel
	// before it counts as failed.
	joinLimit = 15 * time.Second
)

func runJoin(p params) (*outcome, error) {
	o := newOutcome()
	spans := p.spanLog()
	o.spans = spans
	fo := fleetOptions{seed: p.seed, stream: true}
	if p.traced {
		fo.traceRing = 4096
	}
	var setups, colds, repass, goodputs, lat []float64
	var decide [][]float64
	var cpu, phases time.Duration
	var sent, applied, shed float64
	var passes, stragglers, noChannel, lostBase, unknown, attempted int
	var digests []string
	err := each(p.rounds(joinRound), func(round int) error {
		spans.setRound(round)
		in := genJoin(p.seed, round, joinBase, joinCount, joinInterval, joinPhase)
		runtime.GC() // each round starts from a collected heap
		t0 := time.Now()
		f, err := bootFleet(in.Base, fo)
		if err != nil {
			return err
		}
		defer f.close()
		setups = append(setups, time.Since(t0).Seconds())
		// Timed passes wait for the passes the boot reports set off.
		if err := waitQuiet(f, 100*time.Millisecond, time.Minute); err != nil {
			return err
		}
		base := f.all()
		cold, err := f.pass(base, spans, passLimit)
		if err != nil {
			return err
		}
		colds = append(colds, cold.held.Sub(cold.start).Seconds())
		if err := waitQuiet(f, 100*time.Millisecond, time.Minute); err != nil {
			return err
		}

		runtime.GC() // the join phase starts from a collected heap
		var mem *memWatch
		if p.traced {
			mem = startMemWatch()
		}
		regA := regValues(f.reg)
		stA := f.srv.StreamStats()
		dirtyMax, stopSampler := sampleDirty(f, p.traced)
		cpu0 := cpuTime()
		ph, joined := runJoinSchedule(f, in, base, spans)
		// Wait for every join to hold a channel (or its deadline).
		deadline := time.Now().Add(joinLimit)
		for !allJoined(joined) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		phases += time.Since(ph.start)
		cpu += cpuTime() - cpu0
		stopSampler()
		regB := regValues(f.reg)
		stB := f.srv.StreamStats()
		band := spectrum.DefaultBand5GHz()
		for _, j := range joined {
			if j.m == nil {
				noChannel++
				continue
			}
			ns := j.m.first.Load()
			ch := j.m.ra.Current()
			if ns == 0 || ch == (spectrum.Channel{}) || !band.Contains(ch) {
				noChannel++
				continue
			}
			lat = append(lat, float64(time.Unix(0, ns).Sub(j.due))/float64(time.Millisecond))
		}
		n := float64(len(in.Resends) + len(in.Joins))
		sent += n
		applied += delta(regA, regB, "acorn_ctlnet_reports_total")
		shed += delta(regA, regB, "acorn_ctlnet_shard_reports_shed_total")

		// Warm full passes over the grown fleet, once the stream is quiet.
		if err := waitQuiet(f, 100*time.Millisecond, time.Minute); err != nil {
			return err
		}
		all := f.all()
		for i := 0; i < joinWarm; i++ {
			pt, err := f.pass(all, spans, passLimit)
			if err != nil {
				return err
			}
			stragglers += pt.stragglers
			repass = append(repass, pt.held.Sub(pt.start).Seconds())
			decide = append(decide, millis(pt.holdAt))
		}
		regEnd := regValues(f.reg)
		assign := f.srv.Assignments()
		digests = append(digests, assignmentDigest(assign))
		goodputs = append(goodputs, regEnd["acorn_core_goodput_mbps"])
		passes += 1 + joinWarm
		stragglers += cold.stragglers
		lostBase += len(base) - inBand(assign, base)
		unknown += len(all) - f.srv.KnownAgents()
		attempted += int(n) + len(base) + len(all)*joinWarm

		if !p.traced {
			return nil
		}
		mem.finish(o.layer)
		ingestLayers(o, spans, ph, regA, regB, n)
		ctlnetLayers(o, f, spans, []passTiming{cold}, ph.start, regA, regEnd)
		o.layer["ctlnet.stream.passes"] = float64(stB.Passes - stA.Passes)
		o.layer["ctlnet.stream.marks"] = float64(stB.Marks - stA.Marks)
		o.layer["ctlnet.stream.dirty_max"] = float64(*dirtyMax)
		var totals, aps []float64
		for _, sv := range f.srv.Tracer.Snapshot(0) {
			if sv.Kind != "stream" || sv.Start.Before(ph.start) {
				continue
			}
			totals = append(totals, float64(sv.TotalNs)/1e6)
			if n, err := strconv.Atoi(strings.TrimPrefix(sv.Key, "aps=")); err == nil {
				aps = append(aps, float64(n))
			}
		}
		o.layer["ctlnet.stream.pass_p50_ms"] = quantile(totals, 0.50)
		o.layer["ctlnet.stream.pass_p95_ms"] = quantile(totals, 0.95)
		o.layer["ctlnet.stream.aps_per_pass"] = mean(aps)
		o.samples["ctlnet.stream pass spans"] = len(totals)
		coreLayers(o.layer, regA, regEnd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rounds := len(setups)
	o.check("every agent holds its assignment after every pass", stragglers == 0,
		fmt.Sprintf("%d stragglers over %d passes", stragglers, passes))
	o.check("every join holds an in-band channel", noChannel == 0,
		fmt.Sprintf("%d/%d without", noChannel, joinCount*rounds))
	o.check("no base AP loses its channel", lostBase == 0, fmt.Sprintf("%d lost over %d rounds", lostBase, rounds))
	o.check("no membership lost", unknown == 0, fmt.Sprintf("%d unknown over %d rounds", unknown, rounds))
	o.check("no report shed", shed == 0, fmt.Sprintf("%.0f shed", shed))
	// Event-driven passes depend on timing, so this digest may differ
	// between runs with one seed.
	o.digest = digest(digests)
	o.attempted = attempted
	o.failed = noChannel + int(shed) + stragglers + lostBase

	o.e2e["setup_s"] = median(setups)
	o.e2e["converge_s"] = median(colds)
	o.e2e["repass_s"] = median(repass)
	o.series["setup_s"] = setups
	o.series["converge_s"] = colds
	o.series["repass_s"] = repass
	o.e2e["report_cpu_us"] = float64(cpu.Microseconds()) / applied
	o.e2e["events_per_s"] = applied / phases.Seconds()
	o.e2e["join_p50_ms"] = quantile(lat, 0.50)
	o.e2e["join_p95_ms"] = quantile(lat, 0.95)
	o.e2e["decide_p50_ms"] = medianQuantile(decide, 0.50)
	o.e2e["decide_p99_ms"] = medianQuantile(decide, 0.99)
	o.e2e["goodput_mbps"] = median(goodputs)
	o.samples["rounds"] = rounds
	o.samples["join"] = len(lat)
	o.samples["decide"] = count(decide)
	o.samples["reports"] = int(sent)
	return o, nil
}

// joinRecord is one scheduled join: its due time and, once booted, its
// member.
type joinRecord struct {
	due time.Time
	m   *member
}

// runJoinSchedule sends base resends and boots joining agents at their
// due times from this one goroutine, and returns the joins in due order.
func runJoinSchedule(f *fleet, in joinInput, base []*member, spans *spanLog) (schedule, []joinRecord) {
	sc := schedule{start: time.Now()}
	joined := make([]joinRecord, 0, len(in.Joins))
	r, j := 0, 0
	for r < len(in.Resends) || j < len(in.Joins) {
		isJoin := r == len(in.Resends) || (j < len(in.Joins) && in.Joins[j].At <= in.Resends[r].At)
		var s send
		if isJoin {
			s = in.Joins[j]
			j++
		} else {
			s = in.Resends[r]
			r++
		}
		due := sc.start.Add(s.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		if late := t0.Sub(due); late > sc.lateMax {
			sc.lateMax = late
		}
		if !isJoin {
			_ = base[s.AP].ra.SendReport(s.Rep) // fails only after Close
			spans.add("SendReport", "", t0, time.Now())
			continue
		}
		m, err := f.add(s.Rep)
		spans.add("Boot", s.Rep.APID, t0, time.Now())
		if err == nil {
			joined = append(joined, joinRecord{due: due, m: m})
		} else {
			joined = append(joined, joinRecord{due: due})
		}
	}
	return sc, joined
}

// allJoined reports whether every booted join holds a channel.
func allJoined(js []joinRecord) bool {
	for _, j := range js {
		if j.m != nil && j.m.first.Load() == 0 {
			return false
		}
	}
	return true
}

// sampleDirty samples the stream's dirty-set depth every 5 ms while on,
// returning the running maximum and a stop function that waits for the
// sampler to exit.
func sampleDirty(f *fleet, on bool) (*int, func()) {
	peak := new(int)
	if !on {
		return peak, func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if d := f.srv.StreamStats().DirtyDepth; d > *peak {
					*peak = d
				}
			}
		}
	}()
	return peak, func() { close(stop); wg.Wait() }
}
