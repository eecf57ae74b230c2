package service

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"fingers"
	"fingers/internal/telemetry"
)

// TestShardedJobEndToEnd runs a sharded job through the full HTTP path:
// the sim_shards request is clamped against the server-side maximum,
// the job streams partial records and drains cleanly, the final record
// matches a direct sharded Simulate bit-for-bit, and the effective
// shard count is stamped into the record meta.
func TestShardedJobEndToEnd(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 1, ProgressEvery: 64, MaxShards: 4})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 8, SimShards: 16}
	st, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	if st.Spec.SimShards != 4 {
		t.Errorf("admitted spec sim_shards %d, want clamp to server max 4", st.Spec.SimShards)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	raw, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := telemetry.ReadRecordsLenient(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("lenient reader skipped %d stream lines: %+v", len(skipped), skipped)
	}
	if len(recs) == 0 {
		t.Fatal("empty stream")
	}
	last := recs[len(recs)-1]
	if last.Partial {
		t.Error("final streamed record is partial")
	}
	waitDone(t, m, st.ID)

	got := getStatus(t, ts, st.ID)
	if got.State != StateDone {
		t.Fatalf("state %s (err %q), want done", got.State, got.Error)
	}
	if got.Record == nil {
		t.Fatal("done job has no record")
	}
	if got.Record.Meta.SimShards != 4 {
		t.Errorf("record meta sim_shards %d, want effective 4", got.Record.Meta.SimShards)
	}

	// Bit-identical to a direct sharded Simulate with the clamped spec.
	direct := st.Spec
	g, err := direct.ResolveGraph()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := direct.Plans()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := direct.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fingers.Simulate(fingers.ArchFingers, g, plans, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Record.Count != want.Result.Count || got.Record.Cycles != want.Result.Cycles {
		t.Errorf("served record count=%d cycles=%d, direct sharded Simulate count=%d cycles=%d",
			got.Record.Count, got.Record.Cycles, want.Result.Count, want.Result.Cycles)
	}
	if want.Shards != 4 {
		t.Errorf("direct run effective shards %d, want 4", want.Shards)
	}

	// The manager must drain cleanly with the sharded job's record kept.
	m.Drain(time.Second)
	if j, ok := m.Get(st.ID); !ok || j.Status().Record == nil {
		t.Error("record lost across drain")
	}
}

// TestShardedJobUnclamped: with no server max, the PE count is the
// only bound, and admission applies it so the spec, the live records
// and the final record all name the shard count that runs.
func TestShardedJobUnclamped(t *testing.T) {
	m, ts := newTestServer(t, Config{Concurrency: 1})
	spec := fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 2, SimShards: 8}
	st, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	if st.Spec.SimShards != 2 {
		t.Errorf("admitted spec sim_shards %d, want 2 (clamped to the PE count)", st.Spec.SimShards)
	}
	waitDone(t, m, st.ID)
	got := getStatus(t, ts, st.ID)
	if got.State != StateDone {
		t.Fatalf("state %s (err %q), want done", got.State, got.Error)
	}
	// 8 requested over 2 PEs: 2 ran, and the record says so.
	if got.Record.Meta.SimShards != 2 {
		t.Errorf("record meta sim_shards %d, want clamped 2", got.Record.Meta.SimShards)
	}
}
