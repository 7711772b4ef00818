package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
)

// Stacks are leaf first, as pprof records them.
var (
	lruUnderHostos = []string{
		"vmgrid/internal/lru.(*List[go.shape.int64]).MoveToFront",
		"vmgrid/internal/hostos.(*BufferCache).touch",
		"vmgrid/internal/hostos.(*Host).Read",
		"vmgrid/internal/guest.(*task).step",
		"vmgrid/internal/sim.(*Kernel).RunUntil",
		"vmgrid/internal/experiments.Table2.func1",
	}
	lruUnderChunk = []string{
		"vmgrid/internal/lru.(*List[go.shape.uint64]).PushFront",
		"vmgrid/internal/chunk.(*Cache).Put",
		"vmgrid/internal/gram.(*Stager).fetch",
	}
	retryUnderVFS = []string{
		"vmgrid/internal/retry.Policy.Delay",
		"vmgrid/internal/vfs.(*Client).call",
		"vmgrid/internal/core.(*Session).boot",
	}
	mallocInTelemetry = []string{
		"runtime.mallocgc",
		"runtime.growslice",
		"sort.Strings",
		"vmgrid/internal/telemetry.(*DB).Select",
		"vmgrid/internal/telemetry.(*Collector).tick",
	}
	gcWorker = []string{
		"runtime.scanobject",
		"runtime.gcDrain",
		"runtime.gcBgMarkWorker.func2",
		"runtime.systemstack",
		"runtime.gcBgMarkWorker",
	}
	harness = []string{
		"syscall.Syscall",
		"net.(*conn).Write",
		"main.(*bench).lifecycle",
	}
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"lru charged to hostos", lruUnderHostos, "hostos"},
		{"lru charged to chunk", lruUnderChunk, "chunk"},
		{"retry charged to vfs", retryUnderVFS, "vfs"},
		{"malloc and sort charged to telemetry", mallocInTelemetry, "telemetry"},
		{"GC worker", gcWorker, "runtime.gc"},
		{"no layer on the stack", harness, "other"},
		{"empty stack", nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestLayersCoverEveryCharge(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, st := range [][]string{lruUnderHostos, lruUnderChunk, retryUnderVFS, mallocInTelemetry, gcWorker, harness} {
		if l := layerOf(st); !known[l] {
			t.Errorf("layer %q missing from the report's layer list", l)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	samples := []sample{
		{lruUnderHostos, 10_000_000, "experiments.table2"},
		{lruUnderHostos, 10_000_000, "experiments.table2"},
		{mallocInTelemetry, 20_000_000, "experiments.table2"},
		{lruUnderChunk, 10_000_000, "experiments.delta"},
		{retryUnderVFS, 30_000_000, "experiments.delta"},
		{gcWorker, 10_000_000, ""},
		{harness, 10_000_000, ""},
	}
	l := charge(samples)
	for _, sel := range []string{"*", "experiments.table2", "experiments.delta", ""} {
		sum := 0.0
		for _, v := range l.shares(sel) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("shares(%q) sum to %v", sel, sum)
		}
	}
	if got := l.shares("experiments.table2")["hostos"]; got != 0.5 {
		t.Errorf("table2 hostos share = %v, want 0.5", got)
	}
	if got := l.shares("*")["runtime.gc"]; got != 0.1 {
		t.Errorf("runtime.gc share = %v, want 0.1", got)
	}
	if got := l.samples("*"); got != len(samples) {
		t.Errorf("samples = %d, want %d", got, len(samples))
	}
	if got, want := l.spanNames(), []string{"experiments.delta", "experiments.table2"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("spanNames = %v, want %v", got, want)
	}
	if got := l.layerNanos("vfs"); got != 30_000_000 {
		t.Errorf("vfs nanos = %d", got)
	}
	if len(charge(nil).shares("*")) != 0 {
		t.Error("an empty ledger has shares")
	}
}

// parkFixture blocks under a span label so the goroutine profile
// records its stack with the label.
func parkFixture(ready *sync.WaitGroup, release <-chan struct{}) {
	pprof.Do(context.Background(), pprof.Labels("span", "fixture"), func(context.Context) {
		ready.Done()
		<-release
	})
}

// TestParseProfileReadsRuntimeOutput decodes a profile the Go runtime
// wrote, so the decoder is checked against the real encoding (packed
// and unpacked fields, inlined frames, labels, the string table).
func TestParseProfileReadsRuntimeOutput(t *testing.T) {
	var ready sync.WaitGroup
	release := make(chan struct{})
	ready.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		parkFixture(&ready, release)
	}()
	ready.Wait()
	var buf bytes.Buffer
	err := pprof.Lookup("goroutine").WriteTo(&buf, 0)
	close(release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.span != "fixture" {
			continue
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".parkFixture") || strings.Contains(fn, ".parkFixture.") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample labelled span=fixture with parkFixture on its stack among %d samples", len(samples))
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed")
	}
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated message parsed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}
