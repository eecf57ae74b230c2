package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedChrome builds a deterministic trace exercising every event kind.
func fixedChrome() *Chrome {
	c := NewChrome()
	c.StartProcess("FINGERS")
	c.TaskGroupBegin(0, 0, 100, 8)
	c.SetOpIssue(0, 110, "intersect", 64, 12, 3)
	c.CacheAccess(0, 112, 256, 4, 0, 130)
	c.SetOpIssue(0, 140, "subtract", 32, 8, 2)
	c.TaskGroupEnd(0, 180)
	c.TaskGroupBegin(1, -1, 90, 2)
	c.CacheAccess(1, 95, 512, 8, 8, 400)
	c.DRAMBurst(120, 320, 4096, 512)
	c.TaskGroupEnd(1, 420)
	c.StartProcess("FlexMiner")
	c.TaskGroupBegin(0, -1, 0, 1)
	c.SetOpIssue(0, 60, "anti-subtract", 16, 4, 1)
	c.TaskGroupEnd(0, 75)
	return c
}

// TestChromeGoldenRoundTrip checks the exporter against its committed
// golden file and that encode → decode → deep-equal is lossless.
func TestChromeGoldenRoundTrip(t *testing.T) {
	c := fixedChrome()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("encoded trace differs from golden file\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}

	var decoded TraceFile
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	wantFile := TraceFile{TraceEvents: c.Events(), DisplayTimeUnit: "ms"}
	if !reflect.DeepEqual(decoded, wantFile) {
		t.Errorf("decode(encode(trace)) != trace\ngot:  %+v\nwant: %+v", decoded, wantFile)
	}

	// A second encode of the decoded form must be byte-identical.
	var buf2 bytes.Buffer
	if _, err := (&Chrome{events: decoded.TraceEvents}).WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding the decoded trace changed the bytes")
	}
}

// TestChromeTrackMetadata checks each PE track is named exactly once per
// process and group slices land on the right (pid, tid).
func TestChromeTrackMetadata(t *testing.T) {
	c := fixedChrome()
	type key struct {
		pid, tid int
		name     string
	}
	meta := map[key]int{}
	slices := 0
	for _, e := range c.Events() {
		if e.Phase == "M" {
			meta[key{e.Pid, e.Tid, e.Name}]++
		}
		if e.Phase == "X" && e.Name == "task-group" {
			slices++
		}
	}
	for k, n := range meta {
		if n != 1 {
			t.Errorf("metadata %+v emitted %d times, want 1", k, n)
		}
	}
	if slices != 3 {
		t.Errorf("task-group slices = %d, want 3", slices)
	}
	if meta[key{1, 0, "thread_name"}] != 1 || meta[key{2, 0, "thread_name"}] != 1 {
		t.Error("expected PE 0 thread metadata in both processes")
	}
}

// TestChromeUnmatchedGroupEnd checks a stray end event is ignored.
func TestChromeUnmatchedGroupEnd(t *testing.T) {
	c := NewChrome()
	c.TaskGroupEnd(3, 50)
	if len(c.Events()) != 0 {
		t.Errorf("stray TaskGroupEnd emitted %d events", len(c.Events()))
	}
}
