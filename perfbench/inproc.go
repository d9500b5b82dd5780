package main

// Workload inproc-stream: core.StreamController on a 200-AP grid (60 m
// pitch). Each round admits the same 1000 clients at setup and feeds a
// trace of 500 events of its own: unchanged reports (60%), moved positions
// (35%) and depart+arrive churn (5%), one Offer+Pump per event under a
// virtual clock, closed by a full pass. A run makes enough rounds to fill
// its time, and decision times are pooled over them.
//
// Why: it runs the incremental engines (association engine, allocState,
// partition, geo grid, switch gate) with no wire at all, so a ctlnet-only
// change must leave it flat. The no-op and move shares use the same layer
// two ways, and no-ops stay above half the trace so the decision median
// sits inside the no-op population instead of on the no-op/move boundary.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
	"acorn/internal/wlan"
)

const (
	inprocAPs     = 200
	inprocClients = 1000
	// inprocStep is the virtual time between trace events: gate,
	// watchdog and hysteresis decisions depend only on the trace.
	inprocStep = 100 * time.Millisecond
	// inprocEvents is the length of each round's trace.
	inprocEvents = 500
	// inprocRound is about how long one round takes, in seconds.
	inprocRound = 5.0
	// Trace shares of no-op and move events; churn takes the rest.
	inprocNoop = 0.60
	inprocMove = 0.35
)

// vclock is the stream's virtual clock.
type vclock struct{ t time.Time }

func (c *vclock) now() time.Time { return c.t }

// inprocRig is one set-up stream controller over its network.
type inprocRig struct {
	net    *wlan.Network
	ctrl   *core.Controller
	stream *core.StreamController
	reg    *obs.Registry
	tracer *obs.Tracer
	clock  *vclock
}

// setupInproc builds the network, admits every client one by one
// (Algorithm 1), runs the cold Algorithm 2 pass, and wraps the controller
// in a stream. It returns the rig, each admission's wall time in ms, and
// the cold pass's wall time.
func setupInproc(in inprocInput, seed int64, traced bool) (*inprocRig, []float64, time.Duration, error) {
	r := &inprocRig{reg: obs.NewRegistry(), clock: &vclock{t: time.Unix(1_700_000_000, 0)}}
	r.net = wlan.NewNetwork(in.APs, append([]*wlan.Client(nil), in.Clients...))
	ctrl, err := core.NewController(r.net, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	ctrl.Obs = r.reg
	admits := make([]float64, len(in.Clients))
	for i, c := range in.Clients {
		t0 := time.Now()
		ctrl.Admit(c)
		admits[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	t0 := time.Now()
	ctrl.Reallocate()
	cold := time.Since(t0)
	r.ctrl = ctrl
	opts := core.StreamOptions{Now: r.clock.now}
	if traced {
		r.tracer = core.NewStreamTracer(2*len(in.Trace)+64, 1, nil)
		opts.Tracer = r.tracer
	}
	r.stream = core.NewStreamController(ctrl, opts)
	return r, admits, cold, nil
}

func runInproc(p params) (*outcome, error) {
	o := newOutcome()
	gen := func(round int) inprocInput {
		// Each round gets fresh objects: the controller keeps and updates
		// the clients it is given.
		return genInproc(p.seed, round, inprocAPs, inprocClients, inprocEvents, inprocNoop, inprocMove)
	}
	// The first set-up and full pass in a process fill the process-wide
	// rate memo for the set-up's links and take several times longer than
	// later ones; they are not timed. Every round's trace moves and brings
	// in clients of its own, so each round finds the memo as cold for them
	// as the first round does.
	warm, _, _, err := setupInproc(gen(0), p.seed, false)
	if err != nil {
		return nil, err
	}
	warm.stream.FullPass()
	spans := p.spanLog()
	o.spans = spans
	var setups, colds, repass, goodputs []float64
	var admits [][]float64
	var all []time.Duration
	byKind := map[string][]time.Duration{}
	var cpu, wall time.Duration
	var refused, shed, unapplied, unassociated int
	var digests []string
	err = each(p.rounds(inprocRound), func(round int) error {
		spans.setRound(round)
		in := gen(round)
		runtime.GC() // each set-up starts from the same heap state
		t0 := time.Now()
		rig, adm, cold, err := setupInproc(in, p.seed, p.traced)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		colds = append(colds, cold.Seconds())
		admits = append(admits, adm)

		s := rig.stream
		runtime.GC() // the measured phases start from a collected heap
		var mem *memWatch
		if p.traced {
			mem = startMemWatch()
		}
		before := regValues(rig.reg)
		stBefore := s.Stats()
		cur := append([]*wlan.Client(nil), in.Clients...)
		var steps []time.Duration
		step := func(kind string, ev core.Event) {
			rig.clock.t = rig.clock.t.Add(inprocStep)
			// The stream runs on the virtual clock; a wall-clock receive
			// stamp starts the event's trace span on the tracer's clock.
			t0 := time.Now()
			ev.Recv = t0
			ok := s.Offer(ev)
			t1 := time.Now()
			s.Pump()
			t2 := time.Now()
			spans.add("Offer", kind, t0, t1)
			spans.add("Pump", kind, t1, t2)
			d := t2.Sub(t0)
			byKind[kind] = append(byKind[kind], d)
			steps = append(steps, d)
			if !ok {
				refused++
			}
		}
		cpu0 := cpuTime()
		start := time.Now()
		for _, ev := range in.Trace {
			switch ev.Kind {
			case kindNoop:
				step(kindNoop, core.Event{Kind: core.EventReport, Client: cur[ev.Slot]})
			case kindMove:
				step(kindMove, core.Event{Kind: core.EventReport, Client: ev.Client})
			case kindChurn:
				step(kindChurn, core.Event{Kind: core.EventDepart, ClientID: cur[ev.Slot].ID})
				step(kindChurn, core.Event{Kind: core.EventArrive, Client: ev.Client})
			}
			if ev.Client != nil {
				cur[ev.Slot] = ev.Client
			}
		}
		wall += time.Since(start)
		cpu += cpuTime() - cpu0
		all = append(all, steps...)

		// One periodic pass over the state the trace left, from a
		// collected heap like every timed pass.
		runtime.GC()
		t0 = time.Now()
		s.FullPass()
		t1 := time.Now()
		spans.add("FullPass", "", t0, t1)
		pass := t1.Sub(t0).Seconds()
		repass = append(repass, pass)
		cfg := rig.ctrl.ConfigView()
		goodputs = append(goodputs, rig.net.Evaluate(cfg).TotalUDP)
		digests = append(digests, configDigest(cfg))

		st := s.Stats()
		shed += int(st.ShedReports + st.ShedCritical - stBefore.ShedReports - stBefore.ShedCritical)
		unapplied += len(steps) - int(st.Applied-stBefore.Applied)
		unassociated += len(rig.net.Clients) - len(cfg.Assoc)
		if !p.traced {
			return nil
		}
		mem.finish(o.layer)
		after := regValues(rig.reg)
		o.layer["core.stream.fullpass_s"] = pass
		stages, n := stageMeans(rig.tracer, "", time.Time{})
		for _, k := range []string{"admit", "neigh", "reopt", "gate"} {
			o.layer["core.stream."+k+"_ms"] = stages[k] * 1e3
		}
		o.layer["core.stream.rank_eval_ms"] = stages["attr.rank_eval"] * 1e3
		o.layer["core.stream.assoc_eval_ms"] = stages["attr.assoc_eval"] * 1e3
		o.samples["core.stream spans"] = n
		// The stream's stages partition each event's enqueue-to-applied
		// span; the benchmark's Offer+Pump wall time brackets it.
		o.reconcile(fmt.Sprintf("core.stream stages vs Offer+Pump, round %d", round), stages["total"], mean(secs(steps)))
		o.layer["core.stream.noop_skips"] = float64(st.NoopSkips - stBefore.NoopSkips)
		o.layer["core.stream.local_reopts"] = float64(st.LocalReopts - stBefore.LocalReopts)
		o.layer["core.stream.engine_deferrals"] = float64(st.EngineDeferrals - stBefore.EngineDeferrals)
		o.layer["core.stream.switches_applied"] = float64(st.SwitchesApplied - stBefore.SwitchesApplied)
		coreLayers(o.layer, before, after)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rounds := len(setups)
	o.attempted = len(all)
	o.failed = refused + shed
	o.check("every Offer accepted", refused == 0, fmt.Sprintf("%d refused", refused))
	o.check("no event shed", shed == 0, fmt.Sprintf("%d shed", shed))
	o.check("every event applied", unapplied == 0, fmt.Sprintf("%d of %d not applied", unapplied, len(all)))
	o.check("every client associated", unassociated == 0,
		fmt.Sprintf("%d unassociated over %d rounds", unassociated, rounds))
	o.digest = digest(digests)

	o.e2e["setup_s"] = median(setups)
	o.e2e["converge_s"] = median(colds)
	o.e2e["repass_s"] = median(repass)
	o.series["setup_s"] = setups
	o.series["converge_s"] = colds
	o.series["repass_s"] = repass
	o.e2e["report_cpu_us"] = float64(cpu.Microseconds()) / float64(len(all))
	o.e2e["events_per_s"] = float64(len(all)) / wall.Seconds()
	// Decision percentiles pool every round's events, taken across the
	// whole run.
	o.e2e["decide_p50_ms"] = quantile(millis(all), 0.50)
	o.e2e["decide_p99_ms"] = quantile(millis(all), 0.99)
	o.e2e["join_p50_ms"] = medianQuantile(admits, 0.50)
	o.e2e["join_p95_ms"] = medianQuantile(admits, 0.95)
	o.e2e["goodput_mbps"] = median(goodputs)
	o.samples["rounds"] = rounds
	o.samples["join"] = count(admits)
	o.samples["decide"] = len(all)
	for k, v := range byKind {
		o.samples["decide."+k] = len(v)
	}
	if p.traced {
		for _, k := range []string{kindNoop, kindMove, kindChurn} {
			o.layer["core.stream.pump_ms."+k+"_p50"] = quantile(millis(byKind[k]), 0.50)
			o.layer["core.stream.pump_ms."+k+"_p99"] = quantile(millis(byKind[k]), 0.99)
		}
	}
	return o, nil
}

// coreLayers stores the core.assoc, core.alloc, core.partition and
// core.graph counters accumulated between two registry reads.
func coreLayers(layer, before, after map[string]float64) {
	d := func(name string) float64 { return delta(before, after, name) }
	layer["core.assoc.engine_builds"] = d("acorn_core_assoc_engine_builds_total")
	hits, misses := d("acorn_core_assoc_delay_memo_hits_total"), d("acorn_core_assoc_delay_memo_misses_total")
	layer["core.assoc.memo_hit_ratio"] = ratio(hits, hits+misses)
	evals, cached := d("acorn_core_alloc_rank_evals_total"), d("acorn_core_alloc_rank_cache_hits_total")
	layer["core.alloc.rank_evals"] = evals
	layer["core.alloc.rank_cache_hit_ratio"] = ratio(cached, evals+cached)
	layer["core.alloc.fallbacks"] = d("acorn_core_alloc_fallbacks_total")
	layer["core.alloc.partition_reuses"] = d("acorn_core_alloc_partition_reuses_total")
	layer["core.partition.rebuilds"] = d("acorn_core_partition_rebuilds_total")
	scanned, pruned := d("acorn_core_graph_pairs_scanned_total"), d("acorn_core_graph_pairs_pruned_total")
	layer["core.graph.pairs_scanned"] = scanned
	layer["core.graph.candidate_ratio"] = ratio(scanned, scanned+pruned)
}

// configDigest fingerprints a configuration's channels and associations.
func configDigest(cfg *wlan.Config) string {
	var rows []string
	for ap, ch := range cfg.Channels {
		rows = append(rows, fmt.Sprintf("ch %s=%d/%d+%d", ap, ch.Width, ch.Primary, ch.Secondary))
	}
	for c, ap := range cfg.Assoc {
		rows = append(rows, fmt.Sprintf("as %s=%s", c, ap))
	}
	sort.Strings(rows)
	return digest(rows)
}
