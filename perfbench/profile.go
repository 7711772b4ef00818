package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file charges CPU-profile samples to the simulator's layers. A
// layer is a package under vmgrid/internal; a sample goes to the
// innermost such frame on its stack, so map hashing, sorting and malloc
// count against the layer that caused them. lru and retry are generic
// helpers and are skipped, which charges them to the layer that called
// them. Stacks with no vmgrid/internal frame go to runtime.gc when a GC
// background worker is on them and to "other" otherwise (the harness,
// the scheduler, syscalls outside any layer).
//
// The profile is decoded from the pprof protobuf format with the
// standard library only.

const internalPrefix = "vmgrid/internal/"

// layers lists the layers in report order, ending with the two buckets
// that take samples outside the simulator's packages.
var layers = []string{
	"sim", "hw", "hostos", "guest", "vmm", "sched", "storage", "chunk",
	"vfs", "netsim", "vnet", "gram", "gis", "rps", "placement",
	"telemetry", "obs", "fault", "core", "wire", "experiments", "trace",
	"runtime.gc", "other",
}

// helpers are packages charged to their caller.
var helpers = map[string]bool{"lru": true, "retry": true}

// gcWorkers are the runtime entry points of background GC work.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf returns the layer a stack is charged to. stack lists function
// names leaf first, as pprof records them.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if !helpers[pkg] {
			return pkg
		}
	}
	for _, fn := range stack {
		for _, w := range gcWorkers {
			if fn == w || strings.HasPrefix(fn, w+".") {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// sample is one decoded profile sample: its stack (leaf first), its CPU
// nanoseconds and the value of its "span" label ("" when unlabelled).
type sample struct {
	stack []string
	nanos int64
	span  string
}

// ledger sums charged CPU nanoseconds per span and layer.
type ledger struct {
	nanos map[string]map[string]int64 // [span][layer]; span "" is unlabelled
	count map[string]int              // samples per span
}

// charge builds the ledger of a set of samples.
func charge(samples []sample) ledger {
	l := ledger{nanos: map[string]map[string]int64{}, count: map[string]int{}}
	for _, s := range samples {
		m := l.nanos[s.span]
		if m == nil {
			m = map[string]int64{}
			l.nanos[s.span] = m
		}
		m[layerOf(s.stack)] += s.nanos
		l.count[s.span]++
	}
	return l
}

// match reports whether span s is selected by sel; "*" selects all.
func match(sel, s string) bool { return sel == "*" || sel == s }

// samples returns the sample count of one span, or of all for "*".
func (l ledger) samples(sel string) int {
	n := 0
	for s, c := range l.count {
		if match(sel, s) {
			n += c
		}
	}
	return n
}

// shares returns each layer's share of one span's CPU (or of all CPU,
// for "*"). The shares of a non-empty selection sum to 1.
func (l ledger) shares(sel string) map[string]float64 {
	var total int64
	for s, m := range l.nanos {
		if match(sel, s) {
			for _, ns := range m {
				total += ns
			}
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for s, m := range l.nanos {
		if match(sel, s) {
			for layer, ns := range m {
				out[layer] += float64(ns) / float64(total)
			}
		}
	}
	return out
}

// layerNanos returns the CPU nanoseconds charged to one layer overall.
func (l ledger) layerNanos(layer string) int64 {
	var t int64
	for _, m := range l.nanos {
		t += m[layer]
	}
	return t
}

// spanNames returns the labelled spans, sorted.
func (l ledger) spanNames() []string {
	var out []string
	for s := range l.nanos {
		if s != "" {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// parseProfile decodes a gzip-compressed pprof CPU profile into samples.
// The CPU-nanoseconds value is the last value of each sample.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(raw)
}

// The field numbers below are those of profile.proto.
type rawSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // (key, str) string-table indices
}

type rawLocation struct {
	id    uint64
	funcs []uint64 // function ids, innermost (inlined) first
}

func decodeProfile(raw []byte) ([]sample, error) {
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{}
		funcs   = map[uint64]int64{} // function id -> name string index
		strs    []string
	)
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			l, err := decodeLocation(b)
			if err != nil {
				return err
			}
			locs[l.id] = l.funcs
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		smp := sample{nanos: s.values[len(s.values)-1]}
		for _, id := range s.locs {
			for _, f := range locs[id] {
				smp.stack = append(smp.stack, str(funcs[f]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "span" {
				smp.span = str(kv[1])
			}
		}
		out = append(out, smp)
	}
	return out, nil
}

func decodeSample(b []byte) (rawSample, error) {
	var s rawSample
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return appendVarints(&s.locs, wire, v, sub)
		case 2:
			var vals []uint64
			if err := appendVarints(&vals, wire, v, sub); err != nil {
				return err
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		case 3:
			var kv [2]int64
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					kv[0] = int64(v)
				case 2:
					kv[1] = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			s.labels = append(s.labels, kv)
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte) (rawLocation, error) {
	var l rawLocation
	err := eachField(b, func(num, _ int, v uint64, sub []byte) error {
		switch num {
		case 1:
			l.id = v
		case 4: // Line{function_id = 1, line = 2}
			return eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					l.funcs = append(l.funcs, v)
				}
				return nil
			})
		}
		return nil
	})
	return l, err
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v; length-delimited fields in b. Fixed-width fields are
// skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
			continue
		default:
			return errBadProfile
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
