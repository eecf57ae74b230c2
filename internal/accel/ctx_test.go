package accel

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fingers/internal/mem"
	"fingers/internal/simerr"
)

// cancellingPE is a fakePE that fires its context after a fixed number
// of its own steps, so the test can measure how many more steps the
// engine executes before honouring the cancellation.
type cancellingPE struct {
	fakePE
	cancelAt int
	cancel   context.CancelFunc
	steps    int
}

func (c *cancellingPE) Step() bool {
	c.steps++
	if c.steps == c.cancelAt {
		c.cancel()
	}
	return c.fakePE.Step()
}

// panicPE draws root on its first step and panics on its Nth.
type panicPE struct {
	fakePE
	panicAt int
	steps   int
	root    uint32
}

func (p *panicPE) Step() bool {
	p.steps++
	if p.steps == 1 {
		p.roots = NewRootSchedulerWithOrder([]uint32{p.root})
		p.NextRoot()
	}
	if p.steps == p.panicAt {
		panic("injected PE fault")
	}
	return p.fakePE.Step()
}

func TestRunCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pes := []PE{&fakePE{step: 10, left: 100}}
	got, err := Run(ctx, pes, 0, nil)
	if err == nil {
		t.Fatal("expected an error from a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error %T is not a *simerr.SimError", err)
	}
	if se.Engine != "serial" || !se.IsCancellation() {
		t.Errorf("SimError = %+v, want serial cancellation", se)
	}
	if got != 0 {
		t.Errorf("horizon before any step = %d, want 0", got)
	}
}

func TestRunCtxCancelWithinQuantum(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pe := &cancellingPE{
		fakePE:   fakePE{step: 3, left: 1 << 20},
		cancelAt: 100,
		cancel:   cancel,
	}
	got, err := Run(ctx, []PE{pe}, 0, nil)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	extra := pe.steps - pe.cancelAt
	if extra < 0 || extra > CancelCheckQuantum {
		t.Errorf("engine ran %d steps past cancellation, want <= %d", extra, CancelCheckQuantum)
	}
	// The partial horizon reflects the simulated time actually reached.
	if want := mem.Cycles(pe.steps) * 3; got != want {
		t.Errorf("partial horizon = %d, want %d", got, want)
	}
}

func TestRunCtxPanicBecomesSimError(t *testing.T) {
	pes := []PE{
		&fakePE{step: 5, left: 10},
		&panicPE{fakePE: fakePE{step: 5, left: 100}, panicAt: 7, root: 42},
	}
	_, err := Run(context.Background(), pes, 0, nil)
	if err == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error %T is not a *simerr.SimError", err)
	}
	if se.Engine != "serial" {
		t.Errorf("Engine = %q, want serial", se.Engine)
	}
	if se.PE != 1 {
		t.Errorf("PE = %d, want 1", se.PE)
	}
	if se.Root != 42 {
		t.Errorf("Root = %d, want 42", se.Root)
	}
	if se.IsCancellation() {
		t.Error("a panic must not be classified as cancellation")
	}
	if len(se.Stack) == 0 {
		t.Error("panic SimError is missing its stack capture")
	}
	if !strings.Contains(err.Error(), "injected PE fault") {
		t.Errorf("error %q does not mention the panic value", err)
	}
}

// TestRunPanicAmongManyPEs attributes a fault to the right PE when it is
// one of eight in the heap: its chip index, the local clock it had
// reached when it panicked, and the root it was mining.
func TestRunPanicAmongManyPEs(t *testing.T) {
	var pes []PE
	for i := 0; i < 8; i++ {
		if i == 5 {
			pes = append(pes, &panicPE{fakePE: fakePE{step: 3, left: 100}, panicAt: 10, root: 7})
			continue
		}
		pes = append(pes, &fakePE{step: mem.Cycles(2 + i), left: 100})
	}
	_, err := Run(context.Background(), pes, 0, nil)
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error %v is not a *simerr.SimError", err)
	}
	// Nine completed steps of 3 cycles each precede the faulting one.
	if se.PE != 5 || se.Cycle != 27 || se.Root != 7 {
		t.Errorf("SimError attributes PE %d, cycle %d, root %d; want PE 5, cycle 27, root 7", se.PE, se.Cycle, se.Root)
	}
}

// TestRunProgressPanicPropagates: a panic raised by the progress callback
// is the caller's fault, not a PE's. It leaves Run as the same panic
// value instead of returning as a *SimError.
func TestRunProgressPanicPropagates(t *testing.T) {
	pes := []PE{&fakePE{step: 5, left: 10}, &fakePE{step: 7, left: 10}}
	defer func() {
		if r := recover(); r != "progress fault" {
			t.Errorf("recovered %v, want the callback's own panic value", r)
		}
	}()
	_, err := Run(context.Background(), pes, 3, func(Progress) { panic("progress fault") })
	t.Errorf("Run returned (err %v) instead of propagating the callback's panic", err)
}
