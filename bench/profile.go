package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
)

// modules are the repository's modules under internal/ that CPU samples
// are charged to.
var modules = []string{
	"app", "core", "memsys", "mover", "placement", "model", "counters", "phase",
	"mpisim", "workloads", "scenario", "xmem", "exp", "serve", "obs", "machine",
}

// cpuLayers are the layers a CPU-profile sample can be charged to: the
// modules, the benchmark's own code, and the Go runtime split into garbage
// collection and everything else.
var cpuLayers = append(slices.Clone(modules), "bench", "go.gc", "go.runtime")

// benchPkg prefixes the benchmark's own function names: "main." in the
// built binary, the import path under go test.
var benchPkg = strings.TrimSuffix(runtime.FuncForPC(reflect.ValueOf(walk).Pointer()).Name(), "walk")

// attribute charges one stack (leaf first, fully qualified function
// names) to a layer: the innermost frame of a listed unimem/internal
// module wins, so runtime work such as memclr or memmove counts against
// the module that asked for it, and so do helper packages that are not
// listed (xrand, lru). Stacks with no module frame go to the benchmark
// when they pass through its code, to go.gc when they run on a GC worker,
// and otherwise to go.runtime, which also covers standard-library work
// with no module caller (for example the HTTP server reading a request).
func attribute(stack []string) string {
	const pfx = "unimem/internal/"
	for _, fn := range stack {
		if !strings.HasPrefix(fn, pfx) {
			continue
		}
		rest := fn[len(pfx):]
		if i := strings.IndexAny(rest, "./"); i > 0 && slices.Contains(modules, rest[:i]) {
			return rest[:i]
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, benchPkg) {
			return "bench"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "go.gc"
		}
	}
	return "go.runtime"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each layer's
// share of the sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total float64
	for i, st := range stacks {
		out[attribute(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out, nil
}

// decodeProfile reads the gzipped profile.proto message runtime/pprof
// writes and returns every sample's stack (leaf first, inlined frames
// expanded) with its weight, the last sample value (CPU nanoseconds).
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples []sample
		locLine = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locLine[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		weights[i] = s.weight
	}
	return stacks, weights, nil
}

// walk calls fn for every field of one protobuf message: varint fields
// pass their value, length-delimited fields their bytes. Fixed-width
// fields, which profile.proto does not use for the fields read here, are
// skipped.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errMalformed
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errMalformed
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errMalformed
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errMalformed
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errMalformed
			}
			msg = msg[4:]
			continue
		default:
			return errMalformed
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errMalformed = errors.New("profile: malformed protobuf")

// appendVarints appends a repeated varint field given either unpacked
// (one value) or packed (a byte run of varints).
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
