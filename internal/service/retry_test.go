package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/journal"
	"fingers/internal/simerr"
)

// TestClassify drives the classifier over every error shape the run
// path can produce, including sentinels wrapped by engine layers.
func TestClassify(t *testing.T) {
	simPanic := simerr.FromPanic("serial", 3, 1000, 42, "index out of range")
	simCancel := simerr.Cancelled("parallel", 500, context.Canceled)
	simDeadline := simerr.Cancelled("serial", 500, context.DeadlineExceeded)
	cases := []struct {
		name string
		err  error
		want FailureClass
	}{
		{"nil", nil, ClassPermanent},
		{"deadline", context.DeadlineExceeded, ClassDeadline},
		{"canceled", context.Canceled, ClassCanceled},
		{"wrapped deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), ClassDeadline},
		{"wrapped canceled", fmt.Errorf("run: %w", context.Canceled), ClassCanceled},
		{"simerr cancellation", simCancel, ClassCanceled},
		{"simerr deadline", simDeadline, ClassDeadline},
		{"simerr panic", simPanic, ClassTransient},
		{"wrapped simerr panic", fmt.Errorf("facade: %w", simPanic), ClassTransient},
		{"retryable marker", fmt.Errorf("flaky: %w", ErrRetryable), ClassTransient},
		{"injected fault", fmt.Errorf("%w: simulate:error@1", ErrInjected), ClassTransient},
		{"malformed graph", fmt.Errorf("load: %w", fingers.ErrMalformedGraph), ClassPermanent},
		{"invalid plan", fmt.Errorf("compile: %w", fingers.ErrInvalidPlan), ClassPermanent},
		{"unknown dataset", &datasets.NotFoundError{Name: "Oz"}, ClassPermanent},
		{"wrapped unknown dataset", fmt.Errorf("resolve: %w", &datasets.NotFoundError{Name: "Oz"}), ClassPermanent},
		{"arbitrary error", errors.New("chip exploded"), ClassPermanent},
		{"drain interruption", ErrDrainInterrupted, ClassCanceled},
		{"client cancel cause", errClientCanceled, ClassCanceled},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFailureRetryable pins the class × spec retry matrix: transient
// always retries, deadline only with a client attempt budget, the rest
// never.
func TestFailureRetryable(t *testing.T) {
	plain := fingers.JobSpec{}
	budgeted := fingers.JobSpec{MaxAttempts: 3}
	cases := []struct {
		class FailureClass
		spec  fingers.JobSpec
		want  bool
	}{
		{ClassTransient, plain, true},
		{ClassTransient, budgeted, true},
		{ClassDeadline, plain, false},
		{ClassDeadline, fingers.JobSpec{MaxAttempts: 1}, false},
		{ClassDeadline, budgeted, true},
		{ClassPermanent, budgeted, false},
		{ClassCanceled, budgeted, false},
	}
	for _, tc := range cases {
		f := &Failure{Class: tc.class, Err: errors.New("x")}
		if got := f.Retryable(tc.spec); got != tc.want {
			t.Errorf("Retryable(%s, max_attempts=%d) = %v, want %v",
				tc.class, tc.spec.MaxAttempts, got, tc.want)
		}
	}
}

// TestBackoffMonotone checks the schedule is monotone non-decreasing
// in the attempt number across several seeds, bounded below by
// BaseDelay and above by MaxDelay.
func TestBackoffMonotone(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: seed}
		prev := time.Duration(0)
		for failed := 1; failed <= 12; failed++ {
			d := p.Backoff(failed)
			if d < prev {
				t.Fatalf("seed %d: backoff(%d) = %s < backoff(%d) = %s — not monotone",
					seed, failed, d, failed-1, prev)
			}
			if d < p.BaseDelay {
				t.Errorf("seed %d: backoff(%d) = %s below base %s", seed, failed, d, p.BaseDelay)
			}
			if d > p.MaxDelay {
				t.Errorf("seed %d: backoff(%d) = %s above cap %s", seed, failed, d, p.MaxDelay)
			}
			prev = d
		}
		if p.Backoff(12) != p.MaxDelay {
			t.Errorf("seed %d: deep backoff %s never reached the cap %s", seed, p.Backoff(12), p.MaxDelay)
		}
	}
}

// TestBackoffDeterministic: equal (seed, attempt) pairs produce equal
// delays; the schedule carries no wall-clock or global-RNG dependence.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{Seed: 99}
	for failed := 1; failed <= 6; failed++ {
		a, b := p.Backoff(failed), p.Backoff(failed)
		if a != b {
			t.Fatalf("backoff(%d) nondeterministic: %s vs %s", failed, a, b)
		}
	}
	q := RetryPolicy{Seed: 100}
	same := true
	for failed := 1; failed <= 4; failed++ {
		if p.Backoff(failed) != q.Backoff(failed) {
			same = false
		}
	}
	if same {
		t.Error("two seeds produced identical jitter everywhere — jitter inert?")
	}
}

// TestBudget pins the client/server attempt-budget clamp.
func TestBudget(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5}
	cases := []struct {
		specMax, want int
	}{
		{0, 5}, // unset → server default
		{1, 1}, // client disables retries
		{3, 3}, // under the cap → honored
		{9, 5}, // over the cap → clamped
	}
	for _, tc := range cases {
		if got := p.Budget(fingers.JobSpec{MaxAttempts: tc.specMax}); got != tc.want {
			t.Errorf("Budget(max_attempts=%d) = %d, want %d", tc.specMax, got, tc.want)
		}
	}
	if got := (RetryPolicy{}).Budget(fingers.JobSpec{}); got != 3 {
		t.Errorf("zero policy budget = %d, want default 3", got)
	}
}

// TestTransientFailureRetriesThenSucceeds fails the first attempt with
// a recovered-panic shape and lets the second succeed: the job must
// end done on attempt 2 with the attempt stamped into its record.
func TestTransientFailureRetriesThenSucceeds(t *testing.T) {
	m, _ := newTestServer(t, Config{
		Concurrency: 1,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	calls := 0
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		calls++
		if calls == 1 {
			return fingers.SimReport{}, simerr.FromPanic("serial", 0, 10, 5, "flaky")
		}
		return fingers.SimReport{}, nil
	}
	j, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Errorf("attempt %d, want 2", st.Attempt)
	}
	if st.Record == nil || st.Record.Meta.Attempt != 2 {
		t.Errorf("record attempt not stamped: %+v", st.Record)
	}
	if calls != 2 {
		t.Errorf("simulate called %d times, want 2", calls)
	}
}

// TestTransientFailureExhaustsBudget fails every attempt and checks
// the job terminates failed with the transient class and the full
// budget consumed — no infinite retry loop.
func TestTransientFailureExhaustsBudget(t *testing.T) {
	m, _ := newTestServer(t, Config{
		Concurrency: 1,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	calls := 0
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		calls++
		return fingers.SimReport{}, fmt.Errorf("always flaky: %w", ErrRetryable)
	}
	j, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	st := j.Status()
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if st.FailureClass != string(ClassTransient) {
		t.Errorf("failure class %q, want transient", st.FailureClass)
	}
	if st.Attempt != 3 || calls != 3 {
		t.Errorf("attempt %d after %d calls, want 3 and 3", st.Attempt, calls)
	}
}

// TestPermanentFailureFailsFast: a permanent error consumes exactly
// one attempt even with budget to spare.
func TestPermanentFailureFailsFast(t *testing.T) {
	m, _ := newTestServer(t, Config{
		Concurrency: 1,
		Retry:       RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
	})
	calls := 0
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		calls++
		return fingers.SimReport{}, fmt.Errorf("bad input: %w", fingers.ErrMalformedGraph)
	}
	j, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	st := j.Status()
	if st.State != StateFailed || st.FailureClass != string(ClassPermanent) {
		t.Fatalf("state %s class %s, want failed/permanent", st.State, st.FailureClass)
	}
	if calls != 1 {
		t.Errorf("simulate called %d times, want 1 (fail fast)", calls)
	}
}

// TestDeadlineRetryOnlyWithBudget: a deadline expiry retries only when
// the client set max_attempts > 1.
func TestDeadlineRetryOnlyWithBudget(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxAttempts int
		wantCalls   int
		wantState   State
	}{
		{"no budget", 0, 1, StateDeadline},
		{"budgeted", 2, 2, StateDeadline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newTestServer(t, Config{
				Concurrency: 1,
				Retry:       RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
			})
			calls := 0
			m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
				calls++
				return fingers.SimReport{Partial: true}, fmt.Errorf("sim: %w", context.DeadlineExceeded)
			}
			j, err := m.SubmitFrom("", fingers.JobSpec{
				Arch: "fingers", Graph: "As", Pattern: "tc",
				TimeoutMS: 50, MaxAttempts: tc.maxAttempts,
			})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, m, j.ID)
			st := j.Status()
			if st.State != tc.wantState {
				t.Fatalf("state %s, want %s", st.State, tc.wantState)
			}
			if calls != tc.wantCalls {
				t.Errorf("simulate called %d times, want %d", calls, tc.wantCalls)
			}
			if st.Record == nil || !st.Record.Partial {
				t.Error("deadline-expired job should carry the partial record of its last attempt")
			}
		})
	}
}

// TestCancelDuringBackoffWait cancels a job parked between attempts
// and checks it finalizes canceled without another run.
func TestCancelDuringBackoffWait(t *testing.T) {
	m, _ := newTestServer(t, Config{
		Concurrency: 1,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: 2 * time.Hour},
	})
	calls := 0
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		calls++
		return fingers.SimReport{}, fmt.Errorf("flaky: %w", ErrRetryable)
	}
	j, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is parked (queued with retry_at set).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := j.Status()
		if st.State == StateQueued && st.RetryAt != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never parked for retry; state %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	m.Cancel(j.ID)
	waitDone(t, m, j.ID)
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	if calls != 1 {
		t.Errorf("simulate ran %d times, want 1 — cancel must abort the backoff wait", calls)
	}
}

// TestDrainDuringBackoffInterrupts drains the daemon while a job waits
// out its retry backoff: the job ends interrupted, not canceled, so a
// restart against the same journal resumes it.
func TestDrainDuringBackoffInterrupts(t *testing.T) {
	dir := t.TempDir()
	jn := openJournal(t, dir, journal.Options{})
	m := NewManager(NewRegistry(), Config{
		Concurrency: 1,
		Journal:     jn,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	m.simulate = func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
		return fingers.SimReport{}, fmt.Errorf("flaky: %w", ErrRetryable)
	}
	j, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.Status().RetryAt == "" {
		if time.Now().After(deadline) {
			t.Fatalf("job never parked for retry; state %s", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	m.Drain(5 * time.Second)
	if st := j.Status(); st.State != StateInterrupted {
		t.Fatalf("state %s (err %q), want interrupted", st.State, st.Error)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(NewRegistry(), Config{Concurrency: 1, Journal: openJournal(t, dir, journal.Options{})})
	defer m2.Drain(0)
	if rs := m2.Recovery(); rs.Requeued != 1 || rs.Interrupted != 1 {
		t.Errorf("recovery %+v, want the interrupted job requeued", rs)
	}
}

// TestInjectedPanicIsTransient: a simulate-seam panic from the fault
// injector classifies transient and the retry succeeds.
func TestInjectedPanicIsTransient(t *testing.T) {
	fi := NewFaultInjector(FaultPoint{Op: OpSimulate, Kind: FaultPanic, Invocation: 1})
	m, _ := newTestServer(t, Config{
		Concurrency:   1,
		Retry:         RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		FaultInjector: fi,
	})
	j, err := m.SubmitFrom("", fingers.JobSpec{Arch: "fingers", Graph: "As", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done after retrying past the injected panic", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Errorf("attempt %d, want 2", st.Attempt)
	}
	// The point is due at invocation 1 only, so two invocations (one per
	// attempt) mean it fired once.
	fi.mu.Lock()
	calls := fi.counts[OpSimulate]
	fi.mu.Unlock()
	if calls != 2 {
		t.Errorf("simulate seam invoked %d times, want 2 (the panic fired once)", calls)
	}
}

// TestParseFaultSpec pins the -inject flag grammar.
func TestParseFaultSpec(t *testing.T) {
	pts, err := ParseFaultSpec("simulate:panic@2, journal:error@5 ,simulate:latency:50ms@1")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("parsed %d points, want 3", len(pts))
	}
	if pts[0].Op != OpSimulate || pts[0].Kind != FaultPanic || pts[0].Invocation != 2 {
		t.Errorf("point 0: %+v", pts[0])
	}
	if pts[2].Kind != FaultLatency || pts[2].Latency != 50*time.Millisecond {
		t.Errorf("point 2: %+v", pts[2])
	}
	for _, bad := range []string{
		"", "simulate:panic", "simulate@1", "simulate:panic@0", "simulate:panic@x",
		"disk:error@1", "simulate:melt@1", "simulate:latency@1", "simulate:latency:zzz@1",
		"simulate:error:extra@1",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}
