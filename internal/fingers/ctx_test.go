package fingers

import (
	"context"
	"errors"
	"testing"

	"fingers/internal/accel"
	"fingers/internal/graph/gen"
	"fingers/internal/mem"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

// panicTracer injects a fault inside PE steps: the first task-group
// event panics, standing in for a defect anywhere in the step path.
type panicTracer struct{ armed bool }

var _ telemetry.Tracer = (*panicTracer)(nil)

func (p *panicTracer) TaskGroupBegin(pe, engine int, at mem.Cycles, size int) {
	if p.armed {
		panic("injected tracer fault")
	}
}
func (p *panicTracer) TaskGroupEnd(pe int, at mem.Cycles) {}
func (p *panicTracer) SetOpIssue(pe int, at mem.Cycles, kind string, longLen, shortLen, workloads int) {
}
func (p *panicTracer) CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles) {
}
func (p *panicTracer) DRAMBurst(start, done mem.Cycles, addr, bytes int64) {}

func TestChipRunCtxAlreadyCancelled(t *testing.T) {
	g := gen.PowerLawCluster(200, 4, 0.5, 31)
	pls := plansFor(t, "tc")
	chip := mustChip(t, DefaultConfig(), 2, 0, g, pls)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := chip.Run(ctx, 0, nil)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	se, ok := simerr.As(err)
	if !ok || se.Engine != "serial" || !se.IsCancellation() {
		t.Errorf("error %v is not a serial-engine cancellation SimError", err)
	}
	if res.Cycles != 0 {
		t.Errorf("cycles before any step = %d, want 0", res.Cycles)
	}
	if chip.RootsDispatched() != 0 {
		t.Errorf("roots dispatched before any step = %d", chip.RootsDispatched())
	}
}

func TestChipRunCtxCancelMidRun(t *testing.T) {
	g := gen.PowerLawCluster(400, 5, 0.6, 37)
	pls := plansFor(t, "tt")
	chip := mustChip(t, DefaultConfig(), 4, 0, g, pls)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps int64
	res, err := chip.Run(ctx, 1, func(p accel.Progress) {
		steps = p.Steps
		if steps == 500 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	se, ok := simerr.As(err)
	if !ok || !se.IsCancellation() {
		t.Fatalf("error %v is not a cancellation SimError", err)
	}
	// The engine must stop within one cancellation quantum of the cancel.
	if steps > 500+accel.CancelCheckQuantum {
		t.Errorf("engine ran to step %d, want <= %d", steps, 500+accel.CancelCheckQuantum)
	}
	if res.Cycles == 0 {
		t.Error("partial result is missing its simulated horizon")
	}
	total, done := chip.RootsTotal(), chip.RootsDispatched()
	if total != g.NumVertices() {
		t.Errorf("RootsTotal = %d, want %d", total, g.NumVertices())
	}
	if done == 0 || done >= total {
		t.Errorf("roots dispatched = %d/%d, want a strict partial prefix", done, total)
	}
}

func TestChipPanicSurfacesAsSimErrorSerial(t *testing.T) {
	g := gen.PowerLawCluster(200, 4, 0.5, 47)
	pls := plansFor(t, "tc")
	chip := mustChip(t, DefaultConfig(), 2, 0, g, pls)
	tr := &panicTracer{armed: true}
	chip.SetTracer(tr)
	_, err := chip.Run(context.Background(), 0, nil)
	if err == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error %T is not a *simerr.SimError", err)
	}
	if se.Engine != "serial" || se.PE < 0 {
		t.Errorf("SimError = %+v, want serial engine with PE attribution", se)
	}
	if se.IsCancellation() {
		t.Error("a panic must not be classified as cancellation")
	}
}

// TestNewChipErrValidation: every degenerate chip argument is an error
// from the one validating constructor, never a panic.
func TestNewChipErrValidation(t *testing.T) {
	g := gen.PowerLawCluster(50, 3, 0.5, 59)
	pls := plansFor(t, "tc")
	if _, err := accel.NewChip(0, 0, g, pls, nil, DefaultConfig().NewPE); err == nil {
		t.Error("0 PEs: expected an error")
	}
	if _, err := accel.NewChip(2, 0, nil, pls, nil, DefaultConfig().NewPE); err == nil {
		t.Error("nil graph: expected an error")
	}
	if _, err := accel.NewChip(2, 0, g, nil, nil, DefaultConfig().NewPE); err == nil {
		t.Error("no plans: expected an error")
	}
	if _, err := accel.NewChip(2, 0, g, append(pls, nil), nil, DefaultConfig().NewPE); err == nil {
		t.Error("nil plan: expected an error")
	}
	if c, err := accel.NewChip(2, 0, g, pls, nil, DefaultConfig().NewPE); err != nil || c == nil {
		t.Errorf("valid args: err = %v", err)
	}
}
