package main

import (
	"bytes"
	"testing"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/telemetry"
)

// TestLogMineRecordGraphInfo pins that a software run record carries
// the same graph summary as every simulated record, representation mix
// included.
func TestLogMineRecordGraphInfo(t *testing.T) {
	g, err := datasets.Resolve("As")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logMineRecord(telemetry.NewRunLog(&buf), g, "As", "tc", 2, 7, false, time.Now())
	recs, skipped, err := telemetry.ReadRecordsLenient(&buf)
	if err != nil || len(skipped) != 0 || len(recs) != 1 {
		t.Fatalf("records %d, skipped %v, err %v", len(recs), skipped, err)
	}
	want := fingers.NewGraphInfo("As", g)
	if got := recs[0].Graph; got != want {
		t.Errorf("graph info %+v, want %+v", got, want)
	}
	if want.HybridBytes == 0 {
		t.Error("As has no hybrid rows; the test no longer checks the representation mix")
	}
}
