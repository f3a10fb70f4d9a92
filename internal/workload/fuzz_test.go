package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeedTrace is a small generated trace, the seed of both trace
// reader fuzz targets: a few transactions, one short ad-hoc scan and an
// update over four files.
func fuzzSeedTrace(f *testing.F) *Trace {
	p := DefaultTraceGenParams(3)
	p.Transactions, p.Types, p.Files, p.TotalPages = 12, 3, 4, 400
	p.MeanRefs, p.AdHocTxns, p.LargestRefs, p.UpdateTxFrac = 4, 1, 20, 0.5
	tr, err := GenerateTrace(p)
	if err != nil {
		f.Fatal(err)
	}
	return tr
}

// FuzzReadTrace feeds arbitrary bytes to the binary trace reader. It
// must return an error or a valid trace, never panic or allocate by a
// count it has not read the elements of, and a trace it accepts must
// read back unchanged after Write. Run it with
// go test ./internal/workload -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime 20s
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedTrace(f).Write(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(traceMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatal("a write/read round trip changed the trace")
		}
	})
}

// FuzzReadTextTrace feeds arbitrary text to the text trace reader, with
// the same properties as FuzzReadTrace over WriteText. Run it with
// go test ./internal/workload -run '^$' -fuzz '^FuzzReadTextTrace$' -fuzztime 20s
func FuzzReadTextTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedTrace(f).WriteText(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(sampleText)
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := ReadTextTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTextTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatal("a write/read round trip changed the trace")
		}
	})
}
