package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layers is the per-layer ledger in output order. Layers are the
// gemsim/internal packages; the sim package is split three ways (its
// calendar, its Tier-2 process handoffs, and the rest of the kernel),
// the Go runtime contributes heap allocation and garbage collection,
// and a sample that reaches none of these lands in other.
var layers = []string{
	"sim.calendar", "sim.kernel", "sim.tier2",
	"cpusrv", "gem", "storage", "netsim", "buffer", "lock", "cc",
	"node", "attrib", "trace", "workload", "routing", "stats",
	"runtime.alloc", "runtime.gc", "other",
}

// layerPackages are the gemsim/internal packages besides sim that are
// layers of their own. Frames of the other internal packages (rng,
// model, core, sweep, ...) are helpers: like runtime frames, they are
// charged to the nearest caller that is a layer.
var layerPackages = map[string]bool{
	"cpusrv": true, "gem": true, "storage": true, "netsim": true,
	"buffer": true, "lock": true, "cc": true, "node": true,
	"attrib": true, "trace": true, "workload": true, "routing": true,
	"stats": true,
}

const internalPrefix = "gemsim/internal/"

// handoffFuncs are the runtime functions a Tier-2 process handoff runs
// through: channel operations, goroutine creation and exit, and the
// scheduler switching goroutines.
var handoffFuncs = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true,
	"runtime.chanrecv": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.send": true, "runtime.recv": true, "runtime.selectgo": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.makechan": true, "runtime.newproc": true, "runtime.newproc1": true,
	"runtime.goexit0": true, "runtime.goexit1": true,
	"runtime.mcall": true, "runtime.park_m": true, "runtime.schedule": true,
	"runtime.findRunnable": true, "runtime.execute": true,
}

// gcRoots prefix the functions at the root of the garbage collector's
// own goroutines, and the pseudo-frame the profiler records for GC work
// it could not unwind.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC"}

// frame is one function activation in a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

// stackSample is one profile sample: a stack, leaf first, and the CPU
// time it stands for.
type stackSample struct {
	stack []frame
	ns    int64
}

// layerOf charges one sampled stack (leaf first) to a layer:
//   - a stack of a GC worker goes to runtime.gc;
//   - runtime.mallocgc and everything it calls go to runtime.alloc;
//   - otherwise the sample goes to the nearest frame that is a layer,
//     passing over runtime and helper frames on the way;
//   - within sim, calendar.go is sim.calendar; Proc methods, Env.Spawn*
//     and any sim frame that reached a handoff runtime function are
//     sim.tier2; the rest is sim.kernel;
//   - a stack with no layer that is scheduler or channel work is a
//     process switch, the only goroutine switching the benchmark does in
//     volume, so sim.tier2; anything else is other.
func layerOf(stack []frame) string {
	for _, f := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(f.fn, root) {
				return "runtime.gc"
			}
		}
	}
	handoff := false
	for _, f := range stack {
		if f.fn == "runtime.mallocgc" {
			return "runtime.alloc"
		}
		if rest, ok := strings.CutPrefix(f.fn, internalPrefix); ok {
			pkg, name, _ := strings.Cut(rest, ".")
			if pkg == "sim" {
				return simLayer(name, f.file, handoff)
			}
			if layerPackages[pkg] {
				return pkg
			}
		}
		handoff = handoff || handoffFuncs[f.fn]
	}
	if handoff {
		return "sim.tier2"
	}
	return "other"
}

// simLayer splits the sim package. name is the function's name within
// the package; handoff reports whether the sample reached a handoff
// runtime function below this frame.
func simLayer(name, file string, handoff bool) string {
	switch {
	case path.Base(file) == "calendar.go":
		return "sim.calendar"
	case handoff, strings.HasPrefix(name, "(*Proc)."), strings.HasPrefix(name, "(*Env).Spawn"):
		return "sim.tier2"
	}
	return "sim.kernel"
}

// attribute sums the samples' CPU time per layer and in total, leaving
// out the reference kernel's samples: they are not the simulator's.
func attribute(samples []stackSample) (byLayer map[string]int64, total int64) {
	byLayer = make(map[string]int64, len(layers))
	for _, s := range samples {
		if inReference(s.stack) {
			continue
		}
		byLayer[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	return byLayer, total
}

// inReference reports whether a sampled stack runs the reference kernel
// or the goroutine it hands values to.
func inReference(stack []frame) bool {
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "main.refKernel") {
			return true
		}
	}
	return false
}

// shares returns each listed layer's fraction of total and their sum,
// which is 1 exactly when every sample was charged to a listed layer.
func shares(byLayer map[string]int64, total int64) (map[string]float64, float64) {
	out := make(map[string]float64, len(layers))
	var sum float64
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(byLayer[l]) / float64(total)
		}
		sum += out[l]
	}
	return out, sum
}

var errBadProfile = errors.New("profile: malformed protobuf")

// parseProfile decodes a gzipped pprof CPU profile, the protobuf
// runtime/pprof writes, into leaf-first stacks with their CPU time. It
// reads only the fields attribution needs: sample types, samples,
// locations with their inlined lines, functions and the string table.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs    []string
		types   []uint64 // string index of each sample type's name
		samples []sample
		locs    = map[uint64][]uint64{}  // location id -> function ids, innermost first
		funcs   = map[uint64][2]uint64{} // function id -> name and file string indexes
	)
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		var err error
		switch num {
		case 1: // sample_type
			err = fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err = fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = uints(s.locs, wire, v, b)
				case 2:
					s.values, err = uints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
		case 5: // function
			var id uint64
			var f [2]uint64
			err = fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f[0] = v
				case 4:
					f[1] = v
				}
				return nil
			})
			funcs[id] = f
		case 6: // string_table
			if wire != 2 {
				return errBadProfile
			}
			strs = append(strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errBadProfile
		}
		var st []frame
		for _, l := range s.locs {
			for _, id := range locs[l] {
				f := funcs[id]
				st = append(st, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, stackSample{stack: st, ns: int64(s.values[cpu])})
	}
	return out, nil
}

// fields calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func fields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errBadProfile
		}
		buf = buf[n:]
		var (
			v uint64
			b []byte
		)
		wire := int(key & 7)
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errBadProfile
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errBadProfile
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errBadProfile
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errBadProfile
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errBadProfile
		}
		if err := fn(int(key>>3), wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated varint field, packed or one value at a time.
func uints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
