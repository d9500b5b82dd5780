// Command perfbench is the repository benchmark of the ACORN control
// plane. It drives the real program through its public APIs — a
// ctlnet.Server with a fleet of ReconnectingAgents over in-memory
// net.Pipe connections, and core.StreamController in process — on inputs
// generated from a seed, checks the program's outputs, and prints every
// metric by name with its unit and direction.
//
// Run it from the repository root (see README.md):
//
//	bash perfbench/run.sh --workload periodic --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics. With --trace 1 an untraced baseline runs in a
// child process, then the traced run here, and the JSON object carries
// the per-layer metrics of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

const (
	// minRounds is the fewest rounds a run makes, however long each
	// takes.
	minRounds = 3
	// reconcileTol is the share of the benchmark-timed wall time that the
	// program's stage sums may leave unattributed.
	reconcileTol = 0.05
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds int
	traced  bool
}

// rounds returns how many rounds a run of a workload whose round takes
// about roundSeconds makes: enough to fill --seconds, and at least
// minRounds. The count depends only on the flags, so runs with one seed
// replay the same rounds on any host.
func (p params) rounds(roundSeconds float64) int {
	return max(minRounds, int(math.Round(float64(p.seconds)/roundSeconds)))
}

// each runs round(i) for i in [0, n), stopping at the first error.
func each(n int, round func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// spanLog returns a fresh span log for traced runs and nil otherwise.
func (p params) spanLog() *spanLog {
	if !p.traced {
		return nil
	}
	return newSpanLog()
}

// check is one correctness check of a run.
type check struct {
	name, detail string
	ok           bool
}

// outcome is what one run measured.
type outcome struct {
	e2e, layer        map[string]float64
	samples           map[string]int       // sample counts behind percentiles
	series            map[string][]float64 // per-sample timings behind medians
	attempted, failed int
	checks            []check
	reconciled        []string // stage-sum reconciliation lines
	digest            string   // fingerprint of the final configuration
	spans             *spanLog
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
		series: map[string][]float64{}}
}

func (o *outcome) check(name string, ok bool, detail string) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: detail})
}

// reconcile compares a mean stage-sum against the mean wall time the
// benchmark measured around the same calls, records the line, and fails
// the run when the unattributed share exceeds reconcileTol.
func (o *outcome) reconcile(what string, stageSum, wall float64) {
	rest := wall - stageSum
	share := ratio(rest, wall)
	ok := math.Abs(share) <= reconcileTol
	o.reconciled = append(o.reconciled, fmt.Sprintf("%s: stages %.6f s, wall %.6f s, unattributed %.6f s (%.2f%%, tolerance %.0f%%)",
		what, stageSum, wall, rest, 100*share, 100*reconcileTol))
	o.check("stage sums reconcile: "+what, ok, fmt.Sprintf("%.2f%% unattributed", 100*share))
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// workload is one benchmark workload. The comment on each run function
// records why the workload was chosen.
type workload struct {
	name string
	run  func(params) (*outcome, error)
	// replayable marks a workload whose final configuration is a
	// function of the seed alone.
	replayable bool
}

var workloads = []workload{
	{"periodic", runPeriodic, true},
	{"stream-join", runJoin, false}, // event-driven passes depend on timing
	{"inproc-stream", runInproc, true},
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: periodic, stream-join or inproc-stream")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured length of one run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: untraced then traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad flags: -workload %q -seconds %d -trace %d\n", *name, *seconds, *trace)
		return 2
	}
	printMeta(stdout, w.name, *seed, *seconds, *trace)

	p := params{seed: *seed, seconds: *seconds, traced: *trace == 1}
	var base *outcome
	if p.traced {
		// The untraced baseline runs in a child process, so both runs
		// start with the program's process-wide memos equally cold.
		var err error
		if base, err = untracedChild(w.name, *seed, *seconds, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s untraced baseline: %v\n", w.name, err)
			return 1
		}
	}
	o, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	label := "untraced"
	if p.traced {
		label = "traced"
		if w.replayable {
			o.check("traced run reaches the untraced final configuration", o.digest == base.digest,
				"untraced "+base.digest)
		}
	}
	printOutcome(stdout, label, o)
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	if !p.traced {
		printE2E(stdout, w.name, o)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricOut{Value: o.e2e[m.Name], Unit: m.Unit}
		}
	} else {
		printTraced(stdout, base, o)
		if err := writeSpans(w.name, *seed, o.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		}
		res.Correct = base.correct() && o.correct()
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricOut{Value: o.layer[m.Name], Unit: m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// untracedChild runs this program again as an untraced run of the same
// workload and seed, and returns its end-to-end metrics, correctness and
// final-configuration digest.
func untracedChild(name string, seed int64, seconds int, stderr io.Writer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result: %w", err)
	}
	o := newOutcome()
	o.check("untraced baseline correct", res.Correct, fmt.Sprintf("%d/%d failed", res.Failed, res.Attempted))
	for k, m := range res.Metrics {
		o.e2e[k] = m.Value
	}
	for _, line := range lines {
		if d, ok := strings.CutPrefix(line, "digest [untraced]: "); ok {
			o.digest = d
		}
	}
	return o, nil
}

// printMeta prints the run's metadata: what ran, on what, from which
// source.
func printMeta(w io.Writer, name string, seed int64, seconds, trace int) {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Fprintf(w, "# GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Fprintf(w, "# git=%s dirty=%s transport=net.Pipe (in-memory, no sockets)\n", rev, dirty)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printOutcome prints a run's checks, sample counts and digest.
func printOutcome(w io.Writer, label string, o *outcome) {
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check [%s] %s: %s (%s)\n", label, c.name, status, c.detail)
	}
	fmt.Fprintf(w, "ops [%s]: %d attempted, %d failed (%.4f%%)\n", label, o.attempted, o.failed,
		100*ratio(float64(o.failed), float64(o.attempted)))
	for _, k := range sortedKeys(o.samples) {
		fmt.Fprintf(w, "samples [%s] %s: %d\n", label, k, o.samples[k])
	}
	for _, k := range sortedKeys(o.series) {
		fmt.Fprintf(w, "series [%s] %s: %.6f\n", label, k, o.series[k])
	}
	fmt.Fprintf(w, "digest [%s]: %s\n", label, o.digest)
}

// printE2E prints every end-to-end metric with its unit and direction.
func printE2E(w io.Writer, workload string, o *outcome) {
	for _, m := range endToEnd {
		kind := "native"
		if m.Native != "all" && m.Native != workload {
			kind = "analogue of " + m.Native
		}
		fmt.Fprintf(w, "e2e %-14s %14.6f %-7s %s is better (%s)\n", m.Name, o.e2e[m.Name], m.Unit, m.Better, kind)
	}
}

// printTraced prints the tracing overhead on each end-to-end metric, the
// stage-sum reconciliation, and every per-layer metric with the
// end-to-end metrics it should move.
func printTraced(w io.Writer, base, traced *outcome) {
	for _, m := range endToEnd {
		b, t := base.e2e[m.Name], traced.e2e[m.Name]
		fmt.Fprintf(w, "overhead %-14s untraced %.6f traced %.6f delta %+.6f %s (%+.2f%%)\n",
			m.Name, b, t, t-b, m.Unit, 100*ratio(t-b, b))
	}
	for _, line := range traced.reconciled {
		fmt.Fprintf(w, "reconcile %s\n", line)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "layer %-34s %14.6f %-6s %s is better -> %s\n",
			m.Name, traced.layer[m.Name], m.Unit, m.Better, strings.Join(m.Moves, ", "))
	}
}

// writeSpans stores the benchmark's spans under .bench_build/spans in the
// working directory.
func writeSpans(workload string, seed int64, l *spanLog) error {
	if l == nil {
		return nil
	}
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return l.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
