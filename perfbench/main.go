// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed number of host seconds, checks the program's
// outputs, and prints a report of every metric with its unit and sample
// count, followed by one JSON result line. README.md describes the
// workloads, the metrics, the layer each metric should move, and how to
// read the layer table.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload repro-data --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload in turn from one process.
//
// With --trace 0 the JSON line carries the end-to-end metrics that
// BENCHMARK.json lists; with --trace 1 it carries the per-layer metrics.
// A traced run measures its first half untraced and its second half with
// the Go CPU profiler on, and charges the profile's samples to layers
// (profile.go).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

type workload struct {
	name string
	run  func(*bench) error
}

// workloads lists the workloads in report order.
var workloads = []workload{
	{"repro-data", func(b *bench) error { return runRepro(b, reproData) }},
	{"repro-control", func(b *bench) error { return runRepro(b, reproControl) }},
	{"daemon-sessions", runDaemon},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "repro-data, repro-control, daemon-sessions or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "host seconds each workload measures")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds the profiled half and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var picked []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			picked = append(picked, w)
		}
	}
	if len(picked) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	final := result{Metrics: map[string]metric{}}
	for i, w := range picked {
		// Each workload's peak_rss_mb is its own: the process's peak is
		// reset to its current resident set before every workload after
		// the first, once the last one's garbage is returned to the OS.
		if i > 0 {
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
		b := newBench(*seed, *seconds, *trace == 1)
		if err := w.run(b); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		b.put("peak_rss_mb", "MB", rss, 1)
		b.put("failed_frac", "frac", float64(b.failed)/float64(max(b.attempted, 1)), b.attempted)
		b.printReport(stdout, w.name)
		for _, f := range b.failures {
			fmt.Fprintf(stderr, "perfbench: %s: failed: %s\n", w.name, f)
		}
		want := spec.EndToEnd
		if b.traced {
			want = spec.PerLayer
		}
		ms, err := b.pick(want, !b.traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		final.Attempted += b.attempted
		final.Failed += b.failed
		for k, v := range ms {
			if len(picked) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	final.Correct = final.Failed == 0 && final.Attempted > 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// spec is the part of BENCHMARK.json the program reads: which metrics
// the result line carries, and in which unit.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload run: its settings, its op counts and every
// metric it measured.
type bench struct {
	seed    uint64
	seconds float64
	traced  bool

	attempted, failed int
	failures          []string // the first few, for stderr

	report []reportLine
	values map[string]reportLine
	notes  []string // report lines that are not metrics
	ledger ledger   // charged profile samples of the traced half
	// labelled is true while the profiler runs: calls are wrapped in
	// pprof labels then, and only then, so untraced passes pay nothing.
	labelled bool
}

type reportLine struct {
	name, unit string
	value      float64
	n          int
}

func newBench(seed uint64, seconds float64, traced bool) *bench {
	return &bench{seed: seed, seconds: seconds, traced: traced, values: map[string]reportLine{}}
}

// put records a metric measured from n samples.
func (b *bench) put(name, unit string, v float64, n int) {
	l := reportLine{name, unit, v, n}
	b.report = append(b.report, l)
	b.values[name] = l
}

// note adds a line to the report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and, when err is non-nil, a failure.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
	}
	return false
}

// span runs fn under the pprof label span=name while the profiler runs.
func (b *bench) span(name string, fn func()) {
	if !b.labelled {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
}

// profile runs fn with the CPU profiler on and charges its samples.
func (b *bench) profile(fn func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start profiler: %w", err)
	}
	b.labelled = true
	fn()
	b.labelled = false
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	b.ledger = charge(samples)
	return nil
}

// putLayers records each layer's share of the traced half's CPU.
func (b *bench) putLayers() {
	n := b.ledger.samples("*")
	shares := b.ledger.shares("*")
	for _, l := range layers {
		b.put(l+".cpu_frac", "frac", shares[l], n)
	}
}

// pick selects the metrics the result line carries. A required metric
// that was not measured is an error; an optional one that the workload
// does not exercise reads 0.
func (b *bench) pick(want []specMetric, required bool) (map[string]metric, error) {
	out := map[string]metric{}
	for _, w := range want {
		l, ok := b.values[w.Name]
		if !ok {
			if required {
				return nil, fmt.Errorf("metric %s not measured", w.Name)
			}
			l = reportLine{name: w.Name, unit: w.Unit}
		}
		if l.unit != w.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, l.unit, w.Unit)
		}
		if math.IsNaN(l.value) || math.IsInf(l.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", w.Name, l.value)
		}
		out[w.Name] = metric{Value: l.value, Unit: l.unit}
	}
	return out, nil
}

func (b *bench) printReport(w io.Writer, workload string) {
	mode := "untraced"
	if b.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s  seed=%d  seconds=%g  %s  nproc=%d  %s\n",
		workload, b.seed, b.seconds, mode, runtime.NumCPU(), runtime.Version())
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, l := range b.report {
		if strings.HasSuffix(l.name, ".cpu_frac") && b.traced {
			continue // shown in the layer table below
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", l.name, l.value, l.unit, l.n)
	}
	tw.Flush()
	for _, n := range b.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	if b.traced {
		b.printLayerTable(w)
	}
}

// printLayerTable prints each layer's share of CPU for the whole traced
// half ("all") and for each labelled span, in percent. Columns sum to
// 100 up to rounding.
func (b *bench) printLayerTable(w io.Writer) {
	cols := append([]string{"*"}, b.ledger.spanNames()...)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "layer %\t")
	for _, c := range cols {
		if c == "*" {
			c = "all"
		}
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	shares := make([]map[string]float64, len(cols))
	for i, c := range cols {
		shares[i] = b.ledger.shares(c)
	}
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t", l)
		for i := range cols {
			fmt.Fprintf(tw, "%.1f\t", 100*shares[i][l])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "samples\t")
	for _, c := range cols {
		fmt.Fprintf(tw, "%d\t", b.ledger.samples(c))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// phases calls fn repeatedly, at least once, for the run's seconds,
// starting another call only while the last one would still fit. In a
// traced run the first half runs untraced and the second half under the
// profiler; fn's argument says which half a call belongs to. An error
// from fn ends the run.
func (b *bench) phases(fn func(profiled bool) error) error {
	budget := time.Duration(b.seconds * float64(time.Second))
	if b.traced {
		budget /= 2
	}
	loop := func(profiled bool) error {
		start := time.Now()
		var last time.Duration
		for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
			t := time.Now()
			if err := fn(profiled); err != nil {
				return err
			}
			last = time.Since(t)
		}
		return nil
	}
	if err := loop(false); err != nil || !b.traced {
		return err
	}
	var err error
	if perr := b.profile(func() { err = loop(true) }); perr != nil {
		return perr
	}
	return err
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size since it started
// or since the last resetPeakRSS, whichever is later.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak resident set: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, nil
				}
			}
			return 0, fmt.Errorf("peak resident set: cannot parse %q", line)
		}
	}
	return 0, fmt.Errorf("peak resident set: no VmHWM in /proc/self/status")
}

// resetPeakRSS sets the process's peak resident set size to its current
// one (Linux's clear_refs, value 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
