package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

const (
	simGo      = "/src/gemsim/internal/sim/sim.go"
	calendarGo = "/src/gemsim/internal/sim/calendar.go"
)

// fr builds a frame; the file matters only inside the sim package.
func fr(fn string, file ...string) frame {
	f := frame{fn: fn}
	if len(file) > 0 {
		f.file = file[0]
	}
	return f
}

// layerCases are hand-built stacks, leaf first, each with the layer it
// must be charged to.
var layerCases = []struct {
	name  string
	stack []frame
	want  string
}{
	{"channel send in Proc.park", []frame{
		fr("runtime.gopark"), fr("runtime.chansend"), fr("runtime.chansend1"),
		fr("gemsim/internal/sim.(*Proc).park", simGo),
		fr("gemsim/internal/node.(*Node).runTxn"),
	}, "sim.tier2"},
	{"dispatch handing control to a process", []frame{
		fr("runtime.chanrecv"), fr("runtime.chanrecv1"),
		fr("gemsim/internal/sim.(*Env).dispatch", simGo),
		fr("gemsim/internal/sim.(*Env).drain", simGo),
	}, "sim.tier2"},
	{"goroutine creation in Spawn", []frame{
		fr("runtime.newproc1"), fr("runtime.newproc.func1"), fr("runtime.systemstack"),
		fr("runtime.newproc"), fr("gemsim/internal/sim.(*Env).SpawnAfter", simGo),
	}, "sim.tier2"},
	{"scheduler switching goroutines", []frame{
		fr("runtime.runqsteal"), fr("runtime.findRunnable"), fr("runtime.schedule"),
		fr("runtime.park_m"), fr("runtime.mcall"),
	}, "sim.tier2"},
	{"mallocgc under the lock table", []frame{
		fr("runtime.memclrNoHeapPointers"), fr("runtime.mallocgc"), fr("runtime.newobject"),
		fr("gemsim/internal/lock.(*Table).Request"), fr("gemsim/internal/node.(*Node).lockPage"),
	}, "runtime.alloc"},
	{"mallocgc under Spawn", []frame{
		fr("runtime.mallocgc"), fr("runtime.makechan"),
		fr("gemsim/internal/sim.(*Env).SpawnAfter", simGo),
	}, "runtime.alloc"},
	{"GC worker", []frame{
		fr("runtime.scanobject"), fr("runtime.gcDrain"), fr("runtime.gcBgMarkWorker.func2"),
		fr("runtime.systemstack"), fr("runtime.gcBgMarkWorker"), fr("runtime.goexit"),
	}, "runtime.gc"},
	{"leaf in calendar.go", []frame{
		fr("gemsim/internal/sim.(*calendar).pop", calendarGo),
		fr("gemsim/internal/sim.(*Env).drain", simGo),
	}, "sim.calendar"},
	{"kernel dispatch", []frame{
		fr("gemsim/internal/sim.(*Env).dispatch", simGo),
		fr("gemsim/internal/sim.(*Env).drain", simGo),
	}, "sim.kernel"},
	{"helper package charged to its caller", []frame{
		fr("math/rand.(*Rand).Float64"), fr("gemsim/internal/rng.(*Source).Float64"),
		fr("gemsim/internal/workload.(*DebitCredit).Next"),
	}, "workload"},
	{"runtime copy charged to its caller", []frame{
		fr("runtime.memmove"), fr("gemsim/internal/buffer.(*Pool).Fix"),
	}, "buffer"},
	{"benchmark harness", []frame{fr("main.runBench"), fr("main.main"), fr("runtime.main")}, "other"},
}

func TestLayerOf(t *testing.T) {
	for _, c := range layerCases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: charged to %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSharesSumToOne checks that every sample lands in a listed layer,
// so the listed layers' shares add up to 100%.
func TestSharesSumToOne(t *testing.T) {
	var samples []stackSample
	for i, c := range layerCases {
		samples = append(samples, stackSample{stack: c.stack, ns: int64(i+1) * 10_000_000})
	}
	byLayer, total := attribute(samples)
	if _, sum := shares(byLayer, total); math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1 (per layer: %v)", sum, byLayer)
	}
}

// TestAttributeSkipsReference checks that the reference kernel's
// samples are charged to no layer.
func TestAttributeSkipsReference(t *testing.T) {
	samples := []stackSample{
		{stack: []frame{fr("runtime.mapaccess2_fast64"), fr("main.refKernel"), fr("main.runConfigs")}, ns: 5},
		{stack: []frame{fr("runtime.chanrecv2"), fr("main.refKernel.func1"), fr("runtime.goexit")}, ns: 7},
		{stack: []frame{fr("gemsim/internal/lock.(*Table).Request")}, ns: 11},
	}
	byLayer, total := attribute(samples)
	if total != 11 || byLayer["lock"] != 11 || len(byLayer) != 1 {
		t.Fatalf("attributed %v of %d ns, want only lock's 11 ns", byLayer, total)
	}
}

// pb appends protobuf fields, to hand-encode a profile.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pb) bytes(num int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

// TestParseProfile decodes a hand-encoded profile with two sample
// types, an inlined call (two lines in one location), and repeated
// fields both packed and one value at a time, then charges it to
// layers.
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"gemsim/internal/sim.(*calendar).pop", calendarGo,
		"gemsim/internal/sim.(*Env).drain", simGo,
		"gemsim/internal/lock.(*Table).Request", "/src/gemsim/internal/lock/lock.go"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	// 10ms in calendar.pop, inlined into drain; packed fields.
	p = p.bytes(2, pb{}.packed(1, 1).packed(2, 1, 10_000_000))
	// 30ms in lock.Request called from there; one value per field.
	p = p.bytes(2, pb{}.varint(1, 2).varint(1, 1).varint(2, 3).varint(2, 30_000_000))
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 1)).bytes(4, pb{}.varint(1, 2)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 3)))
	for id, name := range []uint64{5, 7, 9} {
		p = p.bytes(5, pb{}.varint(1, uint64(id+1)).varint(2, name).varint(4, name+1))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	if st := samples[1].stack; len(st) != 3 || st[0].fn != strs[9] || st[1].fn != strs[5] ||
		st[1].file != calendarGo || st[2].fn != strs[7] {
		t.Fatalf("second stack %v, want lock.Request, calendar.pop (inlined), drain", st)
	}
	byLayer, total := attribute(samples)
	if total != 40_000_000 || byLayer["sim.calendar"] != 10_000_000 || byLayer["lock"] != 30_000_000 {
		t.Fatalf("attributed %v of %d ns, want 10ms to sim.calendar and 30ms to lock", byLayer, total)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed without error")
	}
}
