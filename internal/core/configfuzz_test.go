package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzConfigFile feeds arbitrary JSON to the configuration file path
// short of a run: decode with unknown keys rejected (as ReadConfigFile
// does), ToConfig, then validate. Each step must return an error or a
// value, never panic. It never calls Run, because a fuzzed file can ask
// for thousands of nodes or terminals; and it skips a file that names
// a trace, which ToConfig would read from disk (FuzzReadTrace covers
// the trace reader). The committed example configurations are the
// seeds. Run it with
// go test ./internal/core -run '^$' -fuzz '^FuzzConfigFile$' -fuzztime 20s
func FuzzConfigFile(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "config", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed configurations: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var file ConfigFile
		if dec.Decode(&file) != nil {
			return
		}
		if file.TraceFile != "" {
			t.Skip("names a trace file")
		}
		cfg, err := file.ToConfig()
		if err != nil {
			return
		}
		_ = cfg.validate()
	})
}
