package accel

import (
	"context"
	"testing"

	"fingers/internal/mem"
)

func TestRootSchedulerHandsOutAllRoots(t *testing.T) {
	r := NewRootScheduler(5)
	seen := map[uint32]bool{}
	for {
		v, ok := r.Next()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("root %d handed out twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("got %d roots, want 5", len(seen))
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining = %d", r.Remaining())
	}
}

// fakePE consumes a fixed number of steps, each advancing time.
type fakePE struct {
	PEState
	step mem.Cycles
	left int
}

func (f *fakePE) Step() bool {
	if f.left == 0 {
		return false
	}
	f.left--
	f.Now += f.step
	return true
}

// mustRun runs the PEs to completion under a background context.
func mustRun(t *testing.T, pes []PE, every int64, fn func(Progress)) mem.Cycles {
	t.Helper()
	got, err := Run(context.Background(), pes, every, fn)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRunReturnsMakespan(t *testing.T) {
	pes := []PE{
		&fakePE{step: 10, left: 3}, // finishes at 30
		&fakePE{step: 7, left: 10}, // finishes at 70
	}
	if got := mustRun(t, pes, 0, nil); got != 70 {
		t.Errorf("makespan = %d, want 70", got)
	}
}

func TestRunEmpty(t *testing.T) {
	if got := mustRun(t, nil, 0, nil); got != 0 {
		t.Errorf("empty makespan = %d", got)
	}
}

func TestResultSpeedup(t *testing.T) {
	a := Result{Cycles: 100}
	b := Result{Cycles: 400}
	if got := a.Speedup(b); got != 4 {
		t.Errorf("speedup = %v, want 4", got)
	}
	zero := Result{}
	if zero.Speedup(b) != 0 {
		t.Error("zero-cycle speedup should be 0")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Cycles: 5, Count: 2, Tasks: 3}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

// orderedPE records the times at which it steps, via a shared log.
type orderedPE struct {
	PEState
	step mem.Cycles
	left int
	log  *[]mem.Cycles
}

func (o *orderedPE) Step() bool {
	if o.left == 0 {
		return false
	}
	*o.log = append(*o.log, o.Now)
	o.left--
	o.Now += o.step
	return true
}

// TestRunInterleavesInEventOrder: the harness must always step the PE
// with the smallest local clock, so the shared memory system observes
// accesses in near-global time order.
func TestRunInterleavesInEventOrder(t *testing.T) {
	var log []mem.Cycles
	pes := []PE{
		&orderedPE{step: 7, left: 5, log: &log},
		&orderedPE{step: 3, left: 10, log: &log},
		&orderedPE{step: 11, left: 3, log: &log},
	}
	mustRun(t, pes, 0, nil)
	for i := 1; i < len(log); i++ {
		if log[i] < log[i-1] {
			t.Fatalf("steps out of order at %d: %v", i, log)
		}
	}
	if len(log) != 18 {
		t.Errorf("steps = %d, want 18", len(log))
	}
}

// TestSchedulerWithOrder hands out a custom order verbatim.
func TestSchedulerWithOrder(t *testing.T) {
	order := []uint32{5, 2, 9}
	r := NewRootSchedulerWithOrder(order)
	for i, want := range order {
		v, ok := r.Next()
		if !ok || v != want {
			t.Fatalf("root %d = %d,%v want %d", i, v, ok, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("scheduler did not exhaust")
	}
}

// TestRunWithProgressFiresPeriodically checks the progress callback
// cadence and snapshot fields.
func TestRunWithProgressFiresPeriodically(t *testing.T) {
	pes := []PE{
		&fakePE{step: 10, left: 3},
		&fakePE{step: 7, left: 10},
	}
	var snaps []Progress
	got := mustRun(t, pes, 4, func(p Progress) { snaps = append(snaps, p) })
	if got != 70 {
		t.Fatalf("makespan = %d, want 70", got)
	}
	// 13 work steps + 2 retiring pops = 15 quanta → callbacks at 4, 8, 12.
	if len(snaps) != 3 {
		t.Fatalf("got %d progress callbacks: %+v", len(snaps), snaps)
	}
	for i, p := range snaps {
		if p.Steps != int64(4*(i+1)) {
			t.Errorf("snapshot %d at steps %d", i, p.Steps)
		}
	}
	if last := snaps[len(snaps)-1]; last.Active < 0 || last.Now == 0 {
		t.Errorf("implausible final snapshot %+v", last)
	}
}

// TestRunWithProgressDisabled checks every disabled combination runs
// silently to completion.
func TestRunWithProgressDisabled(t *testing.T) {
	for _, every := range []int64{0, -1, 5} {
		pes := []PE{&fakePE{step: 5, left: 4}}
		var fn func(Progress)
		if every == 5 {
			fn = nil // explicit nil fn with a period must also be silent
		}
		if got := mustRun(t, pes, every, fn); got != 20 {
			t.Errorf("every=%d: makespan = %d, want 20", every, got)
		}
	}
}

// TestRunWithProgressNowNeverRegresses: Progress.Now is the simulation
// frontier; successive snapshots must be monotonically non-decreasing.
func TestRunWithProgressNowNeverRegresses(t *testing.T) {
	pes := []PE{
		&fakePE{step: 13, left: 40},
		&fakePE{step: 7, left: 80},
		&fakePE{step: 29, left: 11},
	}
	var prev mem.Cycles
	mustRun(t, pes, 3, func(p Progress) {
		if p.Now < prev {
			t.Fatalf("Now regressed: %d after %d (steps=%d)", p.Now, prev, p.Steps)
		}
		prev = p.Now
	})
}
