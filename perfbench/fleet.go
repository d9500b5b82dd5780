package main

// The networked half of the benchmark: a real ctlnet.Server and a fleet of
// ReconnectingAgents, joined by in-memory net.Pipe connections (no
// sockets, no loopback stack), all in this process.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acorn/internal/ctlnet"
	"acorn/internal/obs"
	"acorn/internal/spectrum"
)

// pipeListener is a net.Listener whose Dial hands the server half of a
// fresh net.Pipe to Accept.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial returns the client half of a new pipe once the server accepted the
// other half; it fails when the listener or ctx is closed.
func (l *pipeListener) Dial(ctx context.Context, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
	case <-ctx.Done():
	}
	client.Close()
	server.Close()
	return nil, net.ErrClosed
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe:perfbench" }

// member is one AP of the fleet: its agent, and the instants at which a
// watcher saw it receive its first and its latest assignment.
type member struct {
	id    string
	ra    *ctlnet.ReconnectingAgent
	first atomic.Int64 // unix ns, 0 until the first assignment
	last  atomic.Int64 // unix ns of the latest assignment
}

// fleet is a server plus its agents. Every goroutine it starts is stopped
// and waited for by close.
type fleet struct {
	srv       *ctlnet.Server
	reg       *obs.Registry
	ln        *pipeListener
	ctx       context.Context
	cancel    context.CancelFunc
	serveDone chan struct{}
	watchers  sync.WaitGroup

	mu      sync.Mutex
	members []*member
}

// fleetOptions configures the server of a fleet.
type fleetOptions struct {
	seed   int64
	stream bool
	// traceRing, when positive, gives the server a pass tracer with that
	// many span slots, sampling every pass.
	traceRing int
}

// newFleet starts a server with no agents yet.
func newFleet(o fleetOptions) *fleet {
	reg := obs.NewRegistry()
	srv := ctlnet.NewServer(o.seed)
	srv.Obs = reg
	if o.traceRing > 0 {
		srv.Tracer = ctlnet.NewServerTracer(o.traceRing, 1, nil)
	}
	srv.PeerTimeout = -1 // heartbeats are off; sessions never idle out
	srv.Stream = ctlnet.StreamConfig{Enabled: o.stream}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{srv: srv, reg: reg, ln: newPipeListener(), ctx: ctx, cancel: cancel,
		serveDone: make(chan struct{})}
	go func() {
		defer close(f.serveDone)
		_ = f.srv.Serve(f.ln) // returns when close shuts the server
	}()
	return f
}

// add boots one agent for rep.APID, sends rep as its first report, and
// starts the watcher that timestamps the assignments it receives.
func (f *fleet) add(rep ctlnet.Report) (*member, error) {
	m := &member{id: rep.APID}
	ra, err := ctlnet.NewReconnectingAgent(f.ctx, "pipe", ctlnet.Hello{APID: rep.APID, TxPowerDBm: 20},
		ctlnet.ReconnectOptions{
			Backoff: ctlnet.Backoff{Min: 25 * time.Millisecond, Max: time.Second},
			Agent: ctlnet.AgentOptions{
				HeartbeatInterval: -1,
				PeerTimeout:       -1,
				Frame:             ctlnet.FrameV2,
				ReadBufBytes:      4 << 10,
				Obs:               f.reg,
			},
			Dial: f.ln.Dial,
			Obs:  f.reg,
		})
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", rep.APID, err)
	}
	m.ra = ra
	f.mu.Lock()
	f.members = append(f.members, m) // from here on close stops it
	f.mu.Unlock()
	if err := ra.SendReport(rep); err != nil {
		return nil, fmt.Errorf("boot report %s: %w", rep.APID, err)
	}
	f.watchers.Add(1)
	go func() {
		defer f.watchers.Done()
		for {
			select {
			case <-f.ctx.Done():
				return
			case <-ra.Updates():
				now := time.Now().UnixNano()
				m.first.CompareAndSwap(0, now)
				m.last.Store(now)
			}
		}
	}()
	return m, nil
}

// all returns a snapshot of the fleet's members.
func (f *fleet) all() []*member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*member(nil), f.members...)
}

// close stops every agent, the server and the watchers, and waits for
// all of them.
func (f *fleet) close() {
	f.cancel()
	var wg sync.WaitGroup
	for _, m := range f.all() {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			m.ra.Close()
		}(m)
	}
	wg.Wait()
	f.srv.Close()
	f.ln.Close()
	<-f.serveDone
	f.watchers.Wait()
}

// waitBooted waits until the server knows n agents and holds a report
// from each.
func (f *fleet) waitBooted(n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for f.srv.KnownAgents() < n || f.srv.ReportedAgents() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("boot stalled: %d/%d known, %d/%d reported",
				f.srv.KnownAgents(), n, f.srv.ReportedAgents(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// passLimit bounds how long agents may take to hold a pass's result
// before they count as failed.
const passLimit = 30 * time.Second

// passTiming is what pass measured: the call's start and return, the
// instant the last agent came to hold its assignment (an agent whose
// assignment did not change holds it from the return), each agent's hold
// time since start, the delivery time since start of each assignment the
// pass sent, the first and last of those deliveries, and how many agents
// still did not hold their assignment at the deadline.
type passTiming struct {
	start, ret, held time.Time
	holdAt           []time.Duration
	gotAt            []time.Duration
	firstDelivery    time.Time
	lastDelivery     time.Time
	stragglers       int
}

// pass runs one timed Reallocate and waits until every agent in ms holds
// the controller's assignment for its AP. The pass starts from a collected
// heap, so it pays for its own garbage and not for the phase before it.
func (f *fleet) pass(ms []*member, spans *spanLog, limit time.Duration) (passTiming, error) {
	for _, m := range ms {
		m.last.Store(0)
	}
	runtime.GC()
	var pt passTiming
	pt.start = time.Now()
	if _, err := f.srv.Reallocate(); err != nil {
		return pt, fmt.Errorf("reallocate: %w", err)
	}
	pt.ret = time.Now()
	spans.add("Reallocate", "", pt.start, pt.ret)
	want := f.srv.Assignments()
	pending := append([]*member(nil), ms...)
	deadline := pt.ret.Add(limit)
	for {
		rest := pending[:0]
		for _, m := range pending {
			if w, ok := want[m.id]; !ok || w == (spectrum.Channel{}) || m.ra.Current() != w {
				rest = append(rest, m)
			}
		}
		pending = rest
		if len(pending) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	pt.stragglers = len(pending)
	pt.held = pt.ret
	pt.holdAt = make([]time.Duration, 0, len(ms))
	for _, m := range ms {
		at := pt.ret
		if ns := m.last.Load(); ns != 0 {
			got := time.Unix(0, ns)
			pt.gotAt = append(pt.gotAt, got.Sub(pt.start))
			if pt.firstDelivery.IsZero() || got.Before(pt.firstDelivery) {
				pt.firstDelivery = got
			}
			if got.After(pt.lastDelivery) {
				pt.lastDelivery = got
			}
			if got.After(at) {
				at = got
			}
		}
		if at.After(pt.held) {
			pt.held = at
		}
		pt.holdAt = append(pt.holdAt, at.Sub(pt.start))
	}
	spans.add("WaitChannel", "all", pt.ret, pt.held)
	return pt, nil
}

// bootFleet starts a fleet and boots one agent per report, returning once
// the server knows every AP and holds its report.
func bootFleet(reps []ctlnet.Report, o fleetOptions) (*fleet, error) {
	f := newFleet(o)
	for _, rep := range reps {
		if _, err := f.add(rep); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := f.waitBooted(len(reps), time.Minute); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitQuiet waits until the stream has no dirty APs and has not started a
// pass for quiet, so timed passes do not overlap event-driven ones.
func waitQuiet(f *fleet, quiet, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	last := f.srv.StreamStats()
	since := time.Now()
	for {
		time.Sleep(5 * time.Millisecond)
		st := f.srv.StreamStats()
		if st.DirtyDepth > 0 || st.Passes != last.Passes || st.FullPasses != last.FullPasses {
			last, since = st, time.Now()
		} else if time.Since(since) >= quiet {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream never went quiet: %d dirty", st.DirtyDepth)
		}
	}
}

// assignmentDigest fingerprints the controller's AP→channel table.
func assignmentDigest(a map[string]spectrum.Channel) string {
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rows := make([]string, len(ids))
	for i, id := range ids {
		ch := a[id]
		rows[i] = fmt.Sprintf("%s=%d/%d+%d", id, ch.Width, ch.Primary, ch.Secondary)
	}
	return digest(rows)
}

// ingestLayers stores the agent, wire-in and shard layer metrics of an
// open-loop phase of sent reports, between registry reads a and b.
func ingestLayers(o *outcome, spans *spanLog, ph schedule, a, b map[string]float64, sent float64) {
	o.layer["bench.gen_late_max_ms"] = ph.lateMax.Seconds() * 1e3
	o.layer["ctlnet.agent.send_us"] = median(spans.durations("SendReport")) * 1e6
	o.layer["ctlnet.wire.same_frac"] = delta(a, b, "acorn_ctlnet_agent_reports_same_total") / sent
	o.layer["ctlnet.wire.rx_bytes_per_report"] = ratio(delta(a, b, "acorn_ctlnet_server_rx_bytes_total"),
		delta(a, b, "acorn_ctlnet_reports_total"))
	o.layer["ctlnet.shard.reports_per_batch"] = ratio(delta(a, b, "acorn_ctlnet_shard_reports_total"),
		delta(a, b, "acorn_ctlnet_shard_batches_total"))
	o.layer["ctlnet.shard.coalesced"] = delta(a, b, "acorn_ctlnet_shard_reports_coalesced_total")
	o.layer["ctlnet.shard.shed"] = delta(a, b, "acorn_ctlnet_shard_reports_shed_total")
}

// ctlnetLayers stores the pass, push and wire-out layer metrics of a
// traced fleet run and reconciles the pass stages with the benchmark's
// Reallocate timings. Stage means cover the spans started after since;
// the push spread covers the cold passes, which push every AP a channel.
func ctlnetLayers(o *outcome, f *fleet, spans *spanLog, colds []passTiming, since time.Time, before, after map[string]float64) {
	walls := spans.durations("Reallocate")
	o.layer["ctlnet.server.reallocate_s"] = median(walls)
	o.layer["ctlnet.wire.tx_bytes_per_push"] = ratio(delta(before, after, "acorn_ctlnet_server_tx_bytes_total"),
		delta(before, after, "acorn_ctlnet_assignment_pushes_total"))
	o.layer["ctlnet.push.p50_ms"] = f.srv.PushLatencyQuantile(0.50).Seconds() * 1e3
	o.layer["ctlnet.push.p99_ms"] = f.srv.PushLatencyQuantile(0.99).Seconds() * 1e3
	o.layer["ctlnet.push.deduped"] = delta(before, after, "acorn_ctlnet_pushes_deduped_total")
	var spread []float64
	for _, pt := range colds {
		// A cold pass's deliveries mostly land before Reallocate returns,
		// so the spread runs from the first delivery to the last.
		spread = append(spread, pt.lastDelivery.Sub(pt.firstDelivery).Seconds())
	}
	o.layer["ctlnet.push.spread_s"] = median(spread)

	all, _ := stageMeans(f.srv.Tracer, "", since)
	for _, k := range []string{"view", "assoc", "alloc", "gate", "push"} {
		o.layer["ctlnet.pass."+k+"_s"] = all[k]
	}
	o.layer["ctlnet.pass.rank_eval_s"] = all["attr.rank_eval"]
	full, n := stageMeans(f.srv.Tracer, "full", time.Time{})
	o.samples["ctlnet.pass full spans"] = n
	named := full["view"] + full["assoc"] + full["alloc"] + full["gate"] + full["push"]
	o.layer["ctlnet.pass.unattributed_s"] = mean(walls) - named
	o.reconcile("ctlnet.pass stages vs Reallocate", named, mean(walls))
}

// schedule is what runSchedule measured about its own timing.
type schedule struct {
	start   time.Time
	lateMax time.Duration
}

// runSchedule sends every report at its due time from this one goroutine
// (open loop: a slow send delays the later ones, and the lateness is
// recorded).
func runSchedule(sends []send, ms []*member, spans *spanLog) schedule {
	sc := schedule{start: time.Now()}
	for _, s := range sends {
		due := sc.start.Add(s.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		if late := t0.Sub(due); late > sc.lateMax {
			sc.lateMax = late
		}
		_ = ms[s.AP].ra.SendReport(s.Rep) // fails only after Close
		spans.add("SendReport", "", t0, time.Now())
	}
	return sc
}

// waitRegistry polls the fleet's registry until done holds or limit
// passes, and returns the last read.
func waitRegistry(f *fleet, done func(map[string]float64) bool, limit time.Duration) map[string]float64 {
	deadline := time.Now().Add(limit)
	for {
		r := regValues(f.reg)
		if done(r) || time.Now().After(deadline) {
			return r
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inBand counts the members whose assignment is a usable channel of the
// 5 GHz band.
func inBand(assign map[string]spectrum.Channel, ms []*member) int {
	band := spectrum.DefaultBand5GHz()
	n := 0
	for _, m := range ms {
		if ch, ok := assign[m.id]; ok && ch != (spectrum.Channel{}) && band.Contains(ch) {
			n++
		}
	}
	return n
}
