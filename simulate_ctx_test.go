package fingers_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"fingers"
)

func ctxFixture(t *testing.T) (*fingers.Graph, []*fingers.Plan) {
	t.Helper()
	g := fingers.GeneratePowerLawCluster(400, 5, 0.5, 4)
	pat, err := fingers.PatternByName("tt")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := fingers.CompilePlan(pat, fingers.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, []*fingers.Plan{pl}
}

// TestSimulateCancelledContext: an already-fired context returns a
// partial report (Partial set, root progress populated) and a *SimError
// wrapping ctx.Err(), on both architectures, sharded or not.
func TestSimulateCancelledContext(t *testing.T) {
	g, plans := ctxFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		opts []fingers.SimOption
	}{
		{"fingers-serial", []fingers.SimOption{fingers.WithPEs(2)}},
		{"fingers-sharded", []fingers.SimOption{fingers.WithPEs(4), fingers.WithShards(2)}},
		{"flexminer-serial", nil},
	}
	for _, c := range cases {
		arch := fingers.ArchFingers
		if c.name == "flexminer-serial" {
			arch = fingers.ArchFlexMiner
		}
		rep, err := fingers.Simulate(arch, g, plans, append(c.opts, fingers.WithContext(ctx))...)
		if err == nil {
			t.Fatalf("%s: expected an error from a cancelled context", c.name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", c.name, err)
		}
		se, ok := fingers.AsSimError(err)
		if !ok || !se.IsCancellation() {
			t.Errorf("%s: error %v is not a cancellation *SimError", c.name, err)
		}
		if !rep.Partial {
			t.Errorf("%s: report is not flagged Partial", c.name)
		}
		if rep.RootsTotal != g.NumVertices() {
			t.Errorf("%s: RootsTotal = %d, want %d", c.name, rep.RootsTotal, g.NumVertices())
		}
		if rep.RootsDone != 0 {
			t.Errorf("%s: RootsDone before any step = %d", c.name, rep.RootsDone)
		}
	}
}

// TestSimulateWithTimeout: an expired deadline cancels the run; the
// error chain reports context.DeadlineExceeded.
func TestSimulateWithTimeout(t *testing.T) {
	g, plans := ctxFixture(t)
	rep, err := fingers.Simulate(fingers.ArchFingers, g, plans,
		fingers.WithPEs(2), fingers.WithTimeout(-time.Second))
	if err == nil {
		t.Fatal("expected an error from an expired timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !rep.Partial {
		t.Error("report is not flagged Partial")
	}
}

// TestSimulateUncancelledMatchesPlain: passing a live context must not
// perturb the simulation — bit-identical cycles and counts.
func TestSimulateUncancelledMatchesPlain(t *testing.T) {
	g, plans := ctxFixture(t)
	want, err := fingers.Simulate(fingers.ArchFingers, g, plans, fingers.WithPEs(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fingers.Simulate(fingers.ArchFingers, g, plans,
		fingers.WithPEs(2), fingers.WithContext(context.Background()),
		fingers.WithTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got.Result != want.Result {
		t.Errorf("ctx run diverges from plain run:\n%+v\n%+v", got.Result, want.Result)
	}
	if got.Partial || want.Partial {
		t.Error("completed runs must not be flagged Partial")
	}
	if got.RootsDone != got.RootsTotal {
		t.Errorf("completed run dispatched %d/%d roots", got.RootsDone, got.RootsTotal)
	}
}

// simPanicTracer triggers a panic inside the simulation from the public
// tracer surface, standing in for a kernel defect.
type simPanicTracer struct{}

func (simPanicTracer) TaskGroupBegin(pe, engine int, at fingers.Cycles, size int) {
	panic("injected fault via public tracer")
}
func (simPanicTracer) TaskGroupEnd(pe int, at fingers.Cycles) {}
func (simPanicTracer) SetOpIssue(pe int, at fingers.Cycles, kind string, longLen, shortLen, workloads int) {
}
func (simPanicTracer) CacheAccess(pe int, at fingers.Cycles, bytes, lines, misses int64, done fingers.Cycles) {
}
func (simPanicTracer) DRAMBurst(start, done fingers.Cycles, addr, bytes int64) {}

// TestSimulatePanicReturnsSimError: a panic inside a PE step surfaces
// from Simulate as a structured *SimError instead of crashing the host.
func TestSimulatePanicReturnsSimError(t *testing.T) {
	g, plans := ctxFixture(t)
	rep, err := fingers.Simulate(fingers.ArchFingers, g, plans,
		fingers.WithPEs(2), fingers.WithTracer(simPanicTracer{}))
	if err == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	se, ok := fingers.AsSimError(err)
	if !ok {
		t.Fatalf("error %T is not a *SimError", err)
	}
	if se.IsCancellation() {
		t.Error("a panic must not be classified as cancellation")
	}
	if len(se.Stack) == 0 {
		t.Error("panic SimError is missing its stack capture")
	}
	if !rep.Partial {
		t.Error("report is not flagged Partial")
	}
}

// TestSimulateValidationErrors: degenerate inputs error out instead of
// panicking, with a zero (non-partial) report.
func TestSimulateValidationErrors(t *testing.T) {
	g, plans := ctxFixture(t)
	if _, err := fingers.Simulate(fingers.ArchFingers, nil, plans); err == nil {
		t.Error("nil graph: expected an error")
	}
	if _, err := fingers.Simulate(fingers.ArchFingers, g, nil); err == nil {
		t.Error("no plans: expected an error")
	}
	if _, err := fingers.Simulate(fingers.ArchFingers, g, plans, fingers.WithPEs(-1)); err == nil {
		t.Error("negative PE count: expected an error")
	}
}
