package main

import (
	"encoding/json"
	"os"
	"testing"
)

// inputs generates every workload's input trace for one round of seed.
func inputs(seed int64, round int) map[string]any {
	return map[string]any{
		"periodic":      genPeriodic(seed, round, periodicAPs, periodicRate, periodicPhase, periodicChanged),
		"stream-join":   genJoin(seed, round, joinBase, joinCount, joinInterval, joinPhase),
		"inproc-stream": genInproc(seed, round, inprocAPs, inprocClients, inprocEvents, inprocNoop, inprocMove),
	}
}

// TestInputsReproducible checks that one seed gives byte-identical inputs
// (reports, report and join schedules, event trace), and that another
// seed, or another round of the same seed, gives different ones.
func TestInputsReproducible(t *testing.T) {
	a, again, other, next := inputs(1, 0), inputs(1, 0), inputs(2, 0), inputs(1, 1)
	for name := range a {
		da, dagain, dother, dnext := digest(a[name]), digest(again[name]), digest(other[name]), digest(next[name])
		if da != dagain {
			t.Errorf("%s: seed 1 gave two different inputs: %s vs %s", name, da, dagain)
		}
		if da == dother {
			t.Errorf("%s: seeds 1 and 2 gave the same input %s", name, da)
		}
		if da == dnext {
			t.Errorf("%s: rounds 0 and 1 of seed 1 gave the same input %s", name, da)
		}
	}
}

// TestInputShapes checks the generated inputs have the shapes the
// workloads promise.
func TestInputShapes(t *testing.T) {
	in := inputs(7, 0)
	per := in["periodic"].(periodicInput)
	changed := 0
	for _, s := range per.Sends {
		if s.Changed {
			changed++
		}
	}
	if frac := float64(changed) / float64(len(per.Sends)); frac < 0.25 || frac > 0.35 {
		t.Errorf("periodic: %.3f of reports changed, want about %.2f", frac, periodicChanged)
	}
	join := in["stream-join"].(joinInput)
	if n := len(join.Joins) * benchmarkRun(t).rounds(joinRound); n < 200 {
		t.Errorf("stream-join: %d joins in a run of BENCHMARK.json's length, want at least 200", n)
	}
	for i := 1; i < len(join.Resends); i++ {
		if join.Resends[i].At < join.Resends[i-1].At {
			t.Fatalf("stream-join: resend %d is due before resend %d", i, i-1)
		}
	}
	tr := in["inproc-stream"].(inprocInput)
	kinds := map[string]int{}
	for _, ev := range tr.Trace {
		kinds[ev.Kind]++
	}
	if noop := float64(kinds[kindNoop]) / float64(len(tr.Trace)); noop <= 0.5 {
		t.Errorf("inproc-stream: no-op share %.3f, want above one half", noop)
	}
}

// benchmarkRun returns the settings of a run of the length BENCHMARK.json
// gives.
func benchmarkRun(t *testing.T) params {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return params{seconds: spec.RunSeconds}
}
