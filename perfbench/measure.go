package main

// Measurement helpers: quantiles, process CPU time, Go runtime memory,
// registry reads, and the benchmark's own span log.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"acorn/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianQuantile returns the median over groups of each group's
// q-quantile. Samples grouped by pass or set-up share that pass's speed,
// so one slow pass moves the result no more than one sample moves a
// median.
func medianQuantile(groups [][]float64, q float64) float64 {
	per := make([]float64, len(groups))
	for i, g := range groups {
		per[i] = quantile(g, q)
	}
	return median(per)
}

// count returns the total number of samples in groups.
func count(groups [][]float64) int {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// regValues reads every counter and gauge of reg, summing labelled
// families over their children.
func regValues(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		switch {
		case s.Value != nil:
			out[s.Name] = *s.Value
		case s.Series != nil:
			var sum float64
			for _, v := range s.Series {
				sum += v
			}
			out[s.Name] = sum
		}
	}
	return out
}

// delta returns after[name] − before[name].
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memWatch records Go runtime memory over the measured phases: bytes
// allocated, GC cycles, and the peak live heap sampled every 50 ms.
type memWatch struct {
	start runtime.MemStats
	peak  uint64
	stop  chan struct{}
	done  chan struct{}
}

func startMemWatch() *memWatch {
	w := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&w.start)
	w.peak = w.start.HeapAlloc
	go func() {
		defer close(w.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > w.peak {
					w.peak = m.HeapAlloc
				}
			}
		}
	}()
	return w
}

// finish stops the sampler and stores the runtime.* layer metrics.
func (w *memWatch) finish(layer map[string]float64) {
	close(w.stop)
	<-w.done
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > w.peak {
		w.peak = end.HeapAlloc
	}
	const mb = 1 << 20
	layer["runtime.alloc_mb"] = float64(end.TotalAlloc-w.start.TotalAlloc) / mb
	layer["runtime.heap_peak_mb"] = float64(w.peak) / mb
	layer["runtime.gc_cycles"] = float64(end.NumGC - w.start.NumGC)
}

// span is one interval the benchmark timed around a public call.
type span struct {
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"`
	StartNs int64  `json:"start_ns"` // since the log was created
	DurNs   int64  `json:"dur_ns"`
}

// spanLog keeps the benchmark's spans in memory until write, each tagged
// with the round that recorded it. A nil log records nothing, so untraced
// runs pay one nil check per call.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	round int
	spans []span
}

// setRound tags the spans recorded from now on with round i.
func (l *spanLog) setRound(i int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.round = i
	l.mu.Unlock()
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name, key string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Round: l.round, Name: name, Key: key,
		StartNs: start.Sub(l.t0).Nanoseconds(), DurNs: end.Sub(start).Nanoseconds()})
	l.mu.Unlock()
}

// durations returns the durations of every span named name that the
// current round recorded, in seconds.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.Round == l.round {
			out = append(out, float64(s.DurNs)/1e9)
		}
	}
	return out
}

// write stores the log as JSON lines at path.
func (l *spanLog) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// stageMeans averages each stage and attribution bucket of the tracer's
// spans of the given kind (all kinds when kind is empty) that started
// after since, in seconds per span, with the mean span total under
// "total" and the span count.
func stageMeans(t *obs.Tracer, kind string, since time.Time) (map[string]float64, int) {
	out := make(map[string]float64)
	n := 0
	for _, sv := range t.Snapshot(0) {
		if (kind != "" && sv.Kind != kind) || sv.Start.Before(since) {
			continue
		}
		n++
		out["total"] += float64(sv.TotalNs) / 1e9
		for k, v := range sv.Stages {
			out[k] += float64(v) / 1e9
		}
		for k, v := range sv.Attrs {
			out["attr."+k] += float64(v) / 1e9
		}
	}
	for k := range out {
		out[k] /= float64(max(n, 1))
	}
	return out, n
}
