package ctlnet

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"acorn/internal/core"
	"acorn/internal/obs"
	"acorn/internal/rf"
	"acorn/internal/spectrum"
	"acorn/internal/stats"
	"acorn/internal/units"
	"acorn/internal/wlan"
)

// Default control-plane timeouts. PeerTimeout should stay comfortably above
// the agents' heartbeat interval (3x or more) so one delayed ping does not
// reap a healthy session.
const (
	DefaultHelloTimeout = 10 * time.Second
	DefaultPeerTimeout  = 90 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// The transmit power a hello may claim; 36 dBm is the 5 GHz EIRP ceiling.
const (
	minTxPowerDBm = -10
	maxTxPowerDBm = 36
)

// Server is the central ACORN controller. It accepts agent connections,
// maintains the latest report per AP, and on Reallocate rebuilds a
// measurement-driven network view, runs Algorithm 2, and pushes the new
// assignments to every connected agent.
//
// Reports survive agent disconnects as a last-known-good view, so a
// flapping AP does not blind the allocator; ReportTTL controls how long
// such a view may feed Reallocate before it is quarantined.
type Server struct {
	// Seed drives the allocation's random initial coloring.
	Seed int64
	// Alloc tunes Algorithm 2 (worker count, period/switch bounds) for
	// every Reallocate. The zero value keeps the defaults.
	Alloc core.AllocOptions
	// Log, when non-nil, receives leveled diagnostic lines (connects and
	// disconnects at info, protocol trouble and quarantines at warn).
	Log *obs.Logger
	// Obs receives control-plane metrics; nil means obs.Default. Set it
	// before Serve — the metric handles bind lazily on first use.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per reallocation pass (see
	// trace.go for the stage catalog). Build it with NewServerTracer and
	// set it before Serve; nil costs nothing on the hot paths.
	Tracer *obs.Tracer
	// SLO, when non-nil, observes every streaming pass's receipt-to-push
	// latency so a windowed quantile can be held against a budget (and a
	// breach hook can capture a profile). Set before Serve.
	SLO *obs.SLO

	// HelloTimeout bounds how long an accepted connection may sit silent
	// before the hello arrives. Zero means DefaultHelloTimeout; negative
	// disables the deadline.
	HelloTimeout time.Duration
	// PeerTimeout is the read deadline applied between messages after the
	// hello; agents keep the session alive with ping heartbeats. Zero
	// means DefaultPeerTimeout; negative disables the deadline.
	PeerTimeout time.Duration
	// WriteTimeout bounds every outbound write so a stalled peer cannot
	// block pushes forever. Zero means DefaultWriteTimeout; negative
	// disables the deadline.
	WriteTimeout time.Duration
	// ReportTTL is the maximum age a report may reach and still count as
	// a fresh view in Reallocate. Older reports are quarantined: they are
	// still used as the last-known-good fallback (and logged), but if no
	// report at all is fresh, Reallocate refuses to run. Zero disables
	// aging.
	ReportTTL time.Duration
	// Stream, when Enabled, turns on event-driven reallocation: reports
	// mark their AP dirty and a consumer goroutine runs gated,
	// neighbourhood-restricted passes (see stream.go). Set before Serve.
	Stream StreamConfig

	stream streamState

	mu          sync.Mutex
	agents      map[string]*agentConn // by AP ID
	reports     map[string]storedReport
	hellos      map[string]Hello
	assign      map[string]spectrum.Channel
	lastRealloc time.Time // last successful Reallocate

	metricsOnce sync.Once
	metrics     *serverMetrics

	stormOnce sync.Once
	stormLog  *obs.Logger

	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
}

// serverMetrics bundles the controller's metric handles, bound once
// against the server's registry so hot paths touch only atomics.
type serverMetrics struct {
	reg             *obs.Registry
	agentsConnected *obs.Gauge
	agentConnected  *obs.GaugeVec
	helloRejects    *obs.Counter
	heartbeats      *obs.Counter
	reportsTotal    *obs.Counter
	reportsStale    *obs.Counter
	reportsReplayed *obs.Counter
	quarantined     *obs.Counter
	reallocs        *obs.Counter
	reallocSkipped  *obs.Counter
	pushes          *obs.Counter
	pushErrors      *obs.Counter
	streamDirty     *obs.Gauge
	streamPasses    *obs.CounterVec
	streamFailures  *obs.Counter
	streamWatchdog  *obs.Counter
	streamVetoes    *obs.Counter

	rxBytes *obs.Counter
	pushWin *obs.Window
	outm    *outboxMetrics
}

// m returns the lazily bound metric handles.
func (s *Server) m() *serverMetrics {
	s.metricsOnce.Do(func() {
		reg := obs.Or(s.Obs)
		s.metrics = &serverMetrics{
			reg: reg,
			agentsConnected: reg.Gauge("acorn_ctlnet_agents_connected",
				"agent sessions currently established"),
			agentConnected: reg.GaugeVec("acorn_ctlnet_agent_connected",
				"per-AP session liveness (1 connected, 0 not)", "ap"),
			helloRejects: reg.Counter("acorn_ctlnet_hello_rejects_total",
				"connections rejected before or at hello"),
			heartbeats: reg.Counter("acorn_ctlnet_heartbeats_total",
				"ping heartbeats received from agents"),
			reportsTotal: reg.Counter("acorn_ctlnet_reports_total",
				"measurement reports accepted"),
			reportsStale: reg.Counter("acorn_ctlnet_reports_stale_total",
				"reports dropped for an out-of-order sequence"),
			reportsReplayed: reg.Counter("acorn_ctlnet_reports_replayed_total",
				"reconnect replays accepted without refreshing the report's age"),
			quarantined: reg.Counter("acorn_ctlnet_reports_quarantined_total",
				"stale reports quarantined past the TTL at reallocation"),
			reallocs: reg.Counter("acorn_ctlnet_reallocations_total",
				"networked reallocations completed"),
			reallocSkipped: reg.Counter("acorn_ctlnet_reallocations_skipped_total",
				"reallocations refused (no agents or all reports stale)"),
			pushes: reg.Counter("acorn_ctlnet_assignment_pushes_total",
				"assignment pushes attempted"),
			pushErrors: reg.Counter("acorn_ctlnet_assignment_push_errors_total",
				"assignment pushes that failed"),
			streamDirty: reg.Gauge("acorn_ctlnet_stream_dirty_aps",
				"APs currently marked dirty awaiting a streaming pass"),
			streamPasses: reg.CounterVec("acorn_ctlnet_stream_passes_total",
				"streaming reallocation passes by scope", "scope"),
			streamFailures: reg.Counter("acorn_ctlnet_stream_pass_failures_total",
				"streaming passes that errored (dirty set requeued)"),
			streamWatchdog: reg.Counter("acorn_ctlnet_stream_watchdog_fires_total",
				"watchdog-forced full passes in stream mode"),
			streamVetoes: reg.Counter("acorn_ctlnet_stream_switch_vetoes_total",
				"proposed channel switches the anti-flap gate refused"),
			rxBytes: reg.Counter("acorn_ctlnet_server_rx_bytes_total",
				"bytes read from agent connections"),
			pushWin: obs.NewWindow(15*time.Minute, 15, nil, nil),
		}
		s.metrics.outm = &outboxMetrics{
			txBytes: reg.Counter("acorn_ctlnet_server_tx_bytes_total",
				"bytes written to agent connections"),
			txBatches: reg.Counter("acorn_ctlnet_server_tx_batches_total",
				"batched writes to agent connections"),
			txMsgs: reg.Counter("acorn_ctlnet_server_tx_msgs_total",
				"messages written to agent connections"),
			pushDeduped: reg.Counter("acorn_ctlnet_pushes_deduped_total",
				"assignment pushes dropped because the connection already holds that assignment"),
			pushCoalesced: reg.Counter("acorn_ctlnet_pushes_coalesced_total",
				"queued assignment pushes replaced latest-wins before hitting the wire"),
			pushErrors: s.metrics.pushErrors,
			pushWin:    s.metrics.pushWin,
		}
		reg.GaugeFunc("acorn_ctlnet_last_reallocation_age_seconds",
			"seconds since the last successful reallocation (-1 before the first)",
			func() float64 {
				if at, ok := s.LastReallocation(); ok {
					return time.Since(at).Seconds()
				}
				return -1
			})
	})
	return s.metrics
}

// ConnectedAgents returns the AP IDs with a live session, sorted.
func (s *Server) ConnectedAgents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.agents))
	for id := range s.agents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// KnownAgents returns how many APs have ever said hello (their last-known-
// good views survive disconnects).
func (s *Server) KnownAgents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hellos)
}

// LastReallocation returns when the last successful Reallocate finished.
func (s *Server) LastReallocation() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRealloc, !s.lastRealloc.IsZero()
}

type agentConn struct {
	conn net.Conn
	ob   *outbox
}

// storedReport is a report plus the bookkeeping Reallocate needs to age it.
type storedReport struct {
	rep  Report
	recv time.Time
}

// NewServer returns an idle controller.
func NewServer(seed int64) *Server {
	return &Server{
		Seed:    seed,
		agents:  map[string]*agentConn{},
		reports: map[string]storedReport{},
		hellos:  map[string]Hello{},
		assign:  map[string]spectrum.Channel{},
	}
}

// timeout resolves a configurable duration against its default: zero picks
// the default, negative disables (returns 0).
func timeout(configured, def time.Duration) time.Duration {
	if configured == 0 {
		return def
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// log returns the configured logger, or a silent one.
func (s *Server) log() *obs.Logger {
	if s.Log != nil {
		return s.Log
	}
	return obs.Nop
}

// stormLogger is the rate-limited logger for per-message hot paths (stale
// report storms, failing streaming passes): at most a couple of lines per
// second, with the suppressed count reported on the next line through. One
// shared bucket per server — a storm is a storm regardless of which agent
// session observes it.
func (s *Server) stormLogger() *obs.Logger {
	s.stormOnce.Do(func() {
		s.stormLog = s.log().Limited(2, 5)
	})
	return s.stormLog
}

// Serve accepts connections on l until the listener is closed, running
// each agent session on its own goroutine. It returns the listener's
// terminal error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.startStream()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close shuts the listener and every agent connection, then waits for the
// handler goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]*agentConn, 0, len(s.agents))
	for _, a := range s.agents {
		conns = append(conns, a)
	}
	s.mu.Unlock()
	s.stopStream()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, a := range conns {
		a.conn.Close()
	}
	s.wg.Wait()
	return err
}

// handle runs one agent session: hello, then a stream of reports and pings.
// Every accepted connection gets a read deadline before the first byte is
// read, so a mute client cannot pin this goroutine. Reports are applied to
// the controller's report table as they arrive; all outbound traffic goes
// through the per-connection outbox.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if d := timeout(s.HelloTimeout, DefaultHelloTimeout); d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d))
	}
	m := s.m()
	r := bufio.NewReaderSize(&countingReader{r: conn, c: m.rxBytes}, 64<<10)
	// The hello always arrives as a v1 JSON line — an agent cannot know
	// the server speaks v2 before the ack.
	env, err := readMsg(r)
	if err != nil {
		m.helloRejects.Inc()
		if errors.Is(err, errMalformed) {
			s.reject(conn, err.Error())
		} else {
			s.reject(conn, "expected hello")
		}
		return
	}
	if env.Type != TypeHello {
		m.helloRejects.Inc()
		s.reject(conn, "expected hello")
		return
	}
	hello := *env.Hello
	if hello.APID == "" {
		m.helloRejects.Inc()
		s.reject(conn, "empty AP id")
		return
	}
	// NaN fails both comparisons.
	if p := hello.TxPowerDBm; !(p >= minTxPowerDBm && p <= maxTxPowerDBm) {
		m.helloRejects.Inc()
		s.reject(conn, "tx power out of range")
		return
	}
	ob := newOutbox(conn, timeout(s.WriteTimeout, DefaultWriteTimeout), m.outm)
	wantV2 := hello.Frame >= FrameV2
	if wantV2 {
		// The agent can read v2 frames from its first byte; everything we
		// send it — starting with the ack itself — goes out framed.
		ob.v2 = true
	}
	ac := &agentConn{conn: conn, ob: ob}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, dup := s.agents[hello.APID]; dup {
		s.mu.Unlock()
		m.helloRejects.Inc()
		s.reject(conn, "duplicate AP id")
		return
	}
	s.agents[hello.APID] = ac
	s.hellos[hello.APID] = hello
	s.mu.Unlock()
	m.agentsConnected.Inc()
	m.agentConnected.With(hello.APID).Set(1)
	s.log().Info("agent connected", "ap", hello.APID, "addr", conn.RemoteAddr())
	if wantV2 {
		ob.enqueueAck(FrameV2)
	}

	// Only the live connection is forgotten on exit: the hello and last
	// report stay behind as the AP's last-known-good view.
	defer func() {
		s.mu.Lock()
		delete(s.agents, hello.APID)
		s.mu.Unlock()
		m.agentsConnected.Dec()
		m.agentConnected.With(hello.APID).Set(0)
		s.log().Info("agent disconnected", "ap", hello.APID)
	}()

	// If an assignment already exists (reconnect), replay it.
	s.mu.Lock()
	if ch, ok := s.assign[hello.APID]; ok {
		s.mu.Unlock()
		s.push(ac, hello.APID, ch)
	} else {
		s.mu.Unlock()
	}

	var dec *frameDecoder
	if wantV2 {
		dec = &frameDecoder{}
	}
	peerTimeout := timeout(s.PeerTimeout, DefaultPeerTimeout)
	for {
		if peerTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(peerTimeout))
		}
		env, err := readMsgAny(r, dec)
		if err != nil {
			if errors.Is(err, errMalformed) {
				ob.sendError(err.Error())
			}
			if !errors.Is(err, net.ErrClosed) {
				s.log().Warn("agent session error", "ap", hello.APID, "err", err)
			}
			return
		}
		switch env.Type {
		case TypePing:
			m.heartbeats.Inc()
			ob.enqueuePong(env.Ping.Seq)
		case TypeReport:
			if env.Report.APID != hello.APID {
				ob.sendError("report for foreign AP id")
				return
			}
			if !finiteSNRs(env.Report) {
				ob.sendError("non-finite client SNR")
				return
			}
			s.applyReport(hello.APID, *env.Report, time.Now())
		default:
			ob.sendError("unexpected message")
			return
		}
	}
}

// applyReport installs one report into the controller's report table,
// preserving the per-AP sequence discipline: an out-of-order report is
// dropped as stale, an equal sequence is a reconnect replay that keeps its
// original receive time (no TTL laundering), and a fresh report marks its
// AP dirty in stream mode.
func (s *Server) applyReport(apID string, rep Report, recv time.Time) {
	m := s.m()
	s.mu.Lock()
	prev, had := s.reports[apID]
	if had && rep.Seq != 0 && rep.Seq < prev.rep.Seq {
		s.mu.Unlock()
		m.reportsStale.Inc()
		s.stormLogger().Warn("ignoring stale report", "ap", apID, "seq", rep.Seq, "stored", prev.rep.Seq)
		return
	}
	replay := had && rep.Seq != 0 && rep.Seq == prev.rep.Seq
	if replay {
		recv = prev.recv
	}
	s.reports[apID] = storedReport{rep: rep, recv: recv}
	s.mu.Unlock()
	m.reportsTotal.Inc()
	if replay {
		m.reportsReplayed.Inc()
	} else if s.Stream.Enabled {
		// markDirty takes the stream lock, so it runs after s.mu is released.
		s.markDirty(apID, recv)
	}
}

// finiteSNRs reports whether every client SNR in rep is a finite number.
// v2 frames carry raw float64 bits, so NaN and ±Inf can arrive; the view
// would calibrate walls from them.
func finiteSNRs(rep *Report) bool {
	for _, c := range rep.Clients {
		if math.IsNaN(c.SNR20dB) || math.IsInf(c.SNR20dB, 0) {
			return false
		}
	}
	return true
}

func (s *Server) reject(conn net.Conn, reason string) {
	if d := timeout(s.WriteTimeout, DefaultWriteTimeout); d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
	}
	_ = writeMsg(conn, &Envelope{Type: TypeError, Error: &Error{Reason: reason}})
}

// push enqueues an assignment to one agent's outbox. Delivery is
// asynchronous: the outbox batches it with any pending traffic, replaces
// it latest-wins if a newer assignment lands first, and drops it entirely
// when the connection already holds an identical assignment (state dedup).
// A write failure closes the connection, which the session's read loop
// notices — the same recovery path a synchronous failure took.
func (s *Server) push(ac *agentConn, apID string, ch spectrum.Channel) {
	m := s.m()
	a := Assign{
		APID:      apID,
		WidthMHz:  int(ch.Width),
		Primary:   int(ch.Primary),
		Secondary: int(ch.Secondary),
	}
	switch ac.ob.enqueueAssign(a, time.Now()) {
	case pushEnqueued:
		m.pushes.Inc()
	case pushDead:
		m.pushErrors.Inc()
		s.log().Warn("assignment push failed", "ap", apID, "err", ac.ob.Err())
	case pushDeduped:
		// Counted by the outbox; nothing to do.
	}
}

// ReportedAgents returns how many APs currently hold a stored report.
func (s *Server) ReportedAgents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reports)
}

// Assignments returns a copy of the current assignment table.
func (s *Server) Assignments() map[string]spectrum.Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]spectrum.Channel, len(s.assign))
	for k, v := range s.assign {
		out[k] = v
	}
	return out
}

// PushLatencyQuantile returns the p-quantile of recent assignment push
// latency (enqueue to write completion) over the server's sliding window,
// 0 before any push.
func (s *Server) PushLatencyQuantile(p float64) time.Duration {
	w := s.m().pushWin
	if w.Count() == 0 {
		return 0
	}
	return time.Duration(w.Quantile(p) * float64(time.Second))
}

// Reallocate rebuilds the network view from the latest reports, runs
// Algorithm 2, stores and pushes the assignments, and returns them keyed by
// AP ID. APs that have said hello but not yet reported are treated as
// clientless.
//
// When ReportTTL is set, reports older than the TTL are quarantined: each
// one is logged and the AP's last-known-good view is still used, degrading
// gracefully through short silences. Only when every report is stale does
// Reallocate refuse to act, since the whole view would then be fiction.
//
// In stream mode this is the authoritative full pass: proposed switches
// still face the anti-flap gate's margin and rate limits (never more than
// burst + rate·W switches per AP in any window W), but not the K-streak
// hysteresis.
func (s *Server) Reallocate() (map[string]spectrum.Channel, error) {
	var span obs.SpanRef
	if s.Tracer != nil {
		span = s.Tracer.Begin("full", "", s.Tracer.Now())
		span.Mark(PassStageQueue) // a direct call has no queue wait
	}
	out, err := s.reallocate(nil, true, span)
	if err == nil {
		span.MarkEnd(PassStageFinal)
	}
	return out, err
}

// reallocate is the shared engine behind the periodic full pass (only nil)
// and the streaming neighbourhood pass (only = dirty APs plus their
// hear-graph neighbours; every other AP holds its channel). In stream mode
// each proposed switch is replayed through the switch gate; vetoed switches
// keep the AP's previous assignment.
//
// pspan is the caller's pass span (a dead ref when tracing is off): the
// stage boundaries crossed here — view build, channel search, gating,
// pushes — are marked into it, and the search's rank-evaluation time is
// attributed. The caller Ends the span; an errored pass leaves it
// unfinished, which the tracer never exports.
func (s *Server) reallocate(only map[string]bool, bypassStreak bool, pspan obs.SpanRef) (map[string]spectrum.Channel, error) {
	m := s.m()
	span := m.reg.Histogram("acorn_ctlnet_reallocate_seconds",
		"wall time of one networked reallocation (view build + search + push)", nil).Start()
	s.mu.Lock()
	hellos := make(map[string]Hello, len(s.hellos))
	for k, v := range s.hellos {
		hellos[k] = v
	}
	reports := make(map[string]Report, len(s.reports))
	now := time.Now()
	fresh := 0
	var quarantined []string
	for k, v := range s.reports {
		reports[k] = v.rep
		if s.ReportTTL > 0 && now.Sub(v.recv) > s.ReportTTL {
			quarantined = append(quarantined, fmt.Sprintf("%s (age %v)", k, now.Sub(v.recv).Round(time.Millisecond)))
		} else {
			fresh++
		}
	}
	s.mu.Unlock()
	if len(hellos) == 0 {
		m.reallocSkipped.Inc()
		return nil, fmt.Errorf("ctlnet: no agents known")
	}
	if len(quarantined) > 0 {
		sort.Strings(quarantined)
		m.quarantined.Add(uint64(len(quarantined)))
		s.log().Warn("quarantined stale reports, using last-known-good",
			"count", len(quarantined), "ttl", s.ReportTTL, "aps", quarantined)
	}
	if len(reports) > 0 && fresh == 0 {
		m.reallocSkipped.Inc()
		return nil, fmt.Errorf("ctlnet: refusing to reallocate: all %d reports stale (TTL %v)",
			len(reports), s.ReportTTL)
	}

	n, cfg := buildView(hellos, reports)
	// Seed the search from a random coloring, or from the previous
	// assignment when one exists (incremental reallocation).
	rng := stats.NewRand(s.Seed)
	core.RandomInitial(n, cfg, rng.Intn)
	prevAssign := make(map[string]spectrum.Channel)
	s.mu.Lock()
	for apID, ch := range s.assign {
		if n.AP(apID) != nil && n.Band.Contains(ch) {
			cfg.Channels[apID] = ch
			prevAssign[apID] = ch
		}
	}
	s.mu.Unlock()
	pspan.Mark(PassStageView)
	est := core.NewEstimator(n)
	opts := s.Alloc
	opts.Only = only
	alloc, allocStats := core.AllocateChannels(n, cfg, est, opts)
	pspan.Mark(PassStageAlloc)
	pspan.Attr(PassAttrRankEval, time.Duration(allocStats.RankNanos), uint64(allocStats.Evals.RankEvals))

	out := s.gateAndInstall(prevAssign, only, bypassStreak, alloc.Channels, allocStats.History)
	s.mu.Lock()
	for apID, ch := range out {
		s.assign[apID] = ch
	}
	conns := make(map[string]*agentConn, len(s.agents))
	for id, ac := range s.agents {
		conns[id] = ac
	}
	s.lastRealloc = time.Now()
	s.mu.Unlock()
	pspan.Mark(PassStageGate)
	for apID, ac := range conns {
		ch, ok := out[apID]
		if !ok {
			continue
		}
		// Restricted passes only push assignments that actually changed;
		// full passes push everything (reconnected agents may hold nothing).
		if only != nil {
			if prev, had := prevAssign[apID]; had && prev == ch {
				continue
			}
		}
		s.push(ac, apID, ch)
	}
	pspan.Mark(PassStagePush)
	m.reallocs.Inc()
	if only == nil {
		s.noteFullPass()
	}
	core.RecordAllocMetrics(m.reg, allocStats, alloc)
	span.End()
	return out, nil
}

// gateAndInstall turns a search result into the assignment to store and
// push. Without a switch gate (stream mode off) the search result is taken
// wholesale. With one, previously assigned APs keep their channel unless
// the gate approves the switch (SwitchGate.ConsiderRecord, the rule the
// in-process StreamController replays too), while an AP's first-ever
// assignment passes ungated (there is nothing to flap from). Never-assigned
// APs outside a restricted pass's eligible set get no assignment at all:
// their search channel is just the random seed, not a decision.
func (s *Server) gateAndInstall(prevAssign map[string]spectrum.Channel, only map[string]bool,
	bypassStreak bool, proposed map[string]spectrum.Channel, history []core.SwitchRecord) map[string]spectrum.Channel {
	s.stream.mu.Lock()
	gate := s.gateLocked()
	s.stream.mu.Unlock()
	out := make(map[string]spectrum.Channel, len(proposed))
	if gate == nil {
		for apID, ch := range proposed {
			out[apID] = ch
		}
		return out
	}
	for apID, ch := range proposed {
		if prev, had := prevAssign[apID]; had {
			out[apID] = prev
		} else if only == nil || only[apID] {
			out[apID] = ch
		}
	}
	var vetoed, applied uint64
	for _, rec := range history {
		if _, had := prevAssign[rec.AP]; !had {
			continue
		}
		if gate.ConsiderRecord(rec, bypassStreak) {
			if out[rec.AP] != rec.Channel {
				out[rec.AP] = rec.Channel
				applied++
			}
		} else {
			vetoed++
		}
	}
	s.stream.mu.Lock()
	s.stream.vetoed += vetoed
	s.stream.applied += applied
	s.stream.mu.Unlock()
	if vetoed > 0 {
		s.m().streamVetoes.Add(vetoed)
	}
	return out
}

// buildView converts reports into a wlan.Network whose link SNRs reproduce
// the measurements: each AP sits at its own far-apart anchor, each reported
// client is placed near its AP with an obstruction loss calibrated to the
// reported SNR, and the contention relation is the reported hear-graph
// (symmetrized).
//
// The anchors sit 10 km apart, so at any TxPower a hello may claim
// (minTxPowerDBm..maxTxPowerDBm) no client hears a foreign AP: its
// association is the one its AP reported, and the view needs no
// Algorithm 1 pass.
func buildView(hellos map[string]Hello, reports map[string]Report) (*wlan.Network, *wlan.Config) {
	ids := make([]string, 0, len(hellos))
	for id := range hellos {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var aps []*wlan.AP
	anchor := map[string]rf.Point{}
	for i, id := range ids {
		p := rf.Point{X: float64(i) * 10000, Y: 0}
		anchor[id] = p
		aps = append(aps, &wlan.AP{ID: id, Pos: p, TxPower: units.DBm(hellos[id].TxPowerDBm)})
	}
	var clients []*wlan.Client
	cfg := wlan.NewConfig()
	for _, id := range ids {
		rep, ok := reports[id]
		if !ok {
			continue
		}
		for _, obs := range rep.Clients {
			c := &wlan.Client{
				ID:  rep.APID + "/" + obs.ClientID,
				Pos: rf.Point{X: anchor[id].X + 5, Y: 3},
			}
			clients = append(clients, c)
			cfg.SetAssoc(c.ID, id)
		}
	}
	n := wlan.NewNetwork(aps, clients)
	n.JitterDB = 0 // the view carries measurements, not physics
	// Calibrate each client's wall so its home-AP SNR matches the report.
	for _, id := range ids {
		rep, ok := reports[id]
		if !ok {
			continue
		}
		ap := n.AP(id)
		for _, obs := range rep.Clients {
			c := n.Client(id + "/" + obs.ClientID)
			base := float64(n.ClientSNR20(ap, c))
			wall := base - obs.SNR20dB
			if wall > 0 {
				c.ExtraLoss = map[string]units.DB{id: units.DB(wall)}
			}
		}
	}
	// Contention from the reported hear-graph, symmetrized, as an
	// adjacency over AP indices (ids order is n.APs order). Self-reports
	// are dropped: an AP never contends with itself.
	idx := make(map[string]int32, len(ids))
	for i, id := range ids {
		idx[id] = int32(i)
	}
	adj := make([][]int32, len(ids))
	for i, id := range ids {
		if rep, ok := reports[id]; ok {
			for _, other := range rep.Hears {
				if j, known := idx[other]; known && int(j) != i {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], int32(i))
				}
			}
		}
	}
	for i, row := range adj {
		slices.Sort(row)
		adj[i] = slices.Compact(row)
	}
	n.ContendAdj = adj
	return n, cfg
}

// ListenAndServe is a convenience for cmd binaries.
func ListenAndServe(addr string, s *Server) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log().Info("acorn controller listening", "addr", l.Addr())
	return s.Serve(l)
}
