// Job lifecycle: a bounded admission queue feeding a fixed worker pool,
// made crash-safe by a write-ahead journal. SubmitFrom validates the spec,
// applies per-client admission control, and journals the admission
// before acknowledging it (so an acknowledged job survives kill -9);
// workers journal each start; and every outcome — done, canceled,
// failed, interrupted — is journaled before the job's Done channel
// closes. On construction the manager replays the journal: terminal
// jobs are restored for status queries, jobs that were queued or
// running at crash time re-enter the queue in their original
// submission order. Transient failures retry with capped exponential
// backoff under a per-job attempt budget; permanent ones fail fast.
// Every state change, whoever makes it, goes through
// Manager.transition, and every run record through Manager.record.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fingers"
	"fingers/internal/accel"
	"fingers/internal/journal"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

// Sentinel admission errors, mapped by the HTTP layer to 503 and 429.
var (
	// ErrDraining rejects submissions after Drain has begun.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrQueueFull rejects submissions when the admission queue is at
	// capacity; the client should back off and retry.
	ErrQueueFull = errors.New("service: job queue is full")
)

// Cancellation causes. Both wrap context.Canceled so errors.Is keeps
// working through them; finish inspects context.Cause to tell a
// client-requested cancellation from a shutdown-forced interruption.
var (
	// ErrDrainInterrupted is the cancellation cause Drain applies when
	// the grace period expires: the job did not fail and was not
	// canceled by its owner — the daemon stopped underneath it. Jobs
	// terminated with this cause report (and journal) as interrupted,
	// which a restart resumes.
	ErrDrainInterrupted = fmt.Errorf("service: interrupted by shutdown: %w", context.Canceled)
	// errClientCanceled is the cause applied by Cancel.
	errClientCanceled = fmt.Errorf("service: canceled by request: %w", context.Canceled)
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued means the job is admitted but no worker has taken it
	// (including a job waiting out a retry backoff).
	StateQueued State = "queued"
	// StateRunning means a worker is simulating the job.
	StateRunning State = "running"
	// StateDone means the simulation completed; the record is full.
	StateDone State = "done"
	// StateCanceled means the job was canceled by request; a job
	// canceled mid-run carries a partial record.
	StateCanceled State = "canceled"
	// StateDeadline means the per-job deadline expired mid-run; the job
	// carries a partial record covering the simulated prefix.
	StateDeadline State = "deadline_exceeded"
	// StateFailed means the run errored for a non-cancellation reason
	// and either the failure was permanent or the attempt budget is
	// spent. The job's error is a *Failure carrying the classification.
	StateFailed State = "failed"
	// StateInterrupted means the daemon stopped the job without
	// completing it — drain grace expiry, or a crash detected at
	// journal replay. Interrupted jobs are resumable: restarting the
	// daemon against the same journal re-enqueues them.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether s is a final state for this process
// lifetime. StateInterrupted is terminal in-process but resumable
// across restarts.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateCanceled, StateDeadline, StateFailed, StateInterrupted:
		return true
	}
	return false
}

// Job is one admitted simulation request. All mutable fields are
// guarded by mu; Done is closed when the job reaches a terminal state.
type Job struct {
	// ID is the manager-assigned identifier ("job-000001", ...).
	ID string
	// Spec is the validated request, with the graph name canonicalized
	// and the timeout defaulted/clamped at admission.
	Spec fingers.JobSpec
	// ClientID is the admitting client's identity (X-Client-ID header
	// or remote address); empty for direct in-process submissions.
	ClientID string
	// Recovered marks a job that lost in-flight work to a crash or
	// drain and was re-enqueued by journal replay.
	Recovered bool

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	mu          sync.Mutex
	state       State
	attemptN    int // 1-based; the attempt currently running or queued
	retryAt     time.Time
	err         error
	record      *telemetry.RunRecord
	gi          telemetry.GraphInfo
	progress    accel.Progress
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Attempt returns the job's current 1-based attempt number.
func (j *Job) Attempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attemptN
}

// JobStatus is the JSON view of a job returned by the status endpoints.
type JobStatus struct {
	ID    string          `json:"id"`
	State State           `json:"state"`
	Spec  fingers.JobSpec `json:"spec"`
	// Attempt is the 1-based attempt number; >1 means the job retried.
	Attempt int `json:"attempt,omitempty"`
	// ClientID is the admitting client, when admission was attributed.
	ClientID string `json:"client_id,omitempty"`
	// RecoveredFromCrash marks a job re-enqueued by journal replay
	// after losing in-flight work.
	RecoveredFromCrash bool `json:"recovered_from_crash,omitempty"`
	// RetryAt is when a queued retry re-enters the queue (RFC 3339);
	// present only while the job waits out the backoff after a
	// transient failure.
	RetryAt string `json:"retry_at,omitempty"`
	// Error is the failure or cancellation message of a terminal job
	// (or the last failure of a job waiting to retry); FailureClass is
	// its classification when one was made.
	Error        string `json:"error,omitempty"`
	FailureClass string `json:"failure_class,omitempty"`
	// Live progress of a running job: scheduler steps executed, the
	// frontmost simulated cycle, and PEs still active.
	Steps  int64 `json:"steps,omitempty"`
	Cycles int64 `json:"cycles,omitempty"`
	Active int   `json:"active_pes,omitempty"`
	// Record is the run record of a terminal job (Partial set when the
	// run was cut short); absent while queued or running, and absent
	// from terminal jobs restored by journal replay (the journal holds
	// transitions, not results — the run log holds those).
	Record      *telemetry.RunRecord `json:"record,omitempty"`
	SubmittedAt string               `json:"submitted_at,omitempty"`
	StartedAt   string               `json:"started_at,omitempty"`
	FinishedAt  string               `json:"finished_at,omitempty"`
}

// Status snapshots the job for serialization.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:                 j.ID,
		State:              j.state,
		Spec:               j.Spec,
		Attempt:            j.attemptN,
		ClientID:           j.ClientID,
		RecoveredFromCrash: j.Recovered,
		Steps:              j.progress.Steps,
		Cycles:             int64(j.progress.Now),
		Active:             j.progress.Active,
		Record:             j.record,
		SubmittedAt:        rfc3339(j.submittedAt),
		StartedAt:          rfc3339(j.startedAt),
		FinishedAt:         rfc3339(j.finishedAt),
	}
	if !j.retryAt.IsZero() && j.state == StateQueued {
		st.RetryAt = rfc3339(j.retryAt)
	}
	if j.err != nil {
		st.Error = j.err.Error()
		var f *Failure
		if errors.As(j.err, &f) {
			st.FailureClass = string(f.Class)
		}
	}
	return st
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Config shapes a Manager. Zero fields take the documented defaults.
type Config struct {
	// Concurrency is the worker-pool width: how many jobs simulate at
	// once. Default 2.
	Concurrency int
	// QueueDepth bounds the admission queue (jobs admitted but not yet
	// running); a full queue rejects with ErrQueueFull. Default 16.
	// Journal replay may size the queue larger when more un-terminal
	// jobs than this are recovered.
	QueueDepth int
	// DefaultTimeout is applied to jobs that set no deadline of their
	// own. Zero leaves them unbounded.
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-job deadlines. Zero means no clamp.
	MaxTimeout time.Duration
	// MaxShards clamps per-job sim_shards requests, bounding how many
	// OS threads one job may fan out across (on top of the clamp to the
	// job's PE count, which admission always applies). Zero means no
	// clamp.
	MaxShards int
	// ProgressEvery is the scheduler-step interval between live progress
	// snapshots. Default 65536 steps.
	ProgressEvery int64
	// Meta is the session-wide provenance stamp merged into every record
	// (Source, GitRev, host shape, default RunTag).
	Meta telemetry.Meta
	// Log, when non-nil, receives every terminal record (including
	// partial records from canceled and expired jobs).
	Log *telemetry.RunLog
	// Journal, when non-nil, is the write-ahead log of job lifecycle
	// transitions. NewManager replays it (restoring terminal jobs and
	// re-enqueueing un-terminal ones) and every subsequent transition
	// is journaled before it is acknowledged.
	Journal *journal.Journal
	// Retry shapes the transient-failure backoff schedule and the
	// per-job attempt budget.
	Retry RetryPolicy
	// ClientRate, when > 0, token-bucket rate-limits submissions per
	// client to this many jobs/second (burst ClientBurst); violations
	// reject with a Retry-After carrying *AdmissionError.
	ClientRate float64
	// ClientBurst is the token-bucket capacity; default
	// max(ClientRate, 1).
	ClientBurst int
	// MaxQueuedPerClient, when > 0, bounds one client's share of the
	// admission queue: submissions beyond it reject with 429 while the
	// client's earlier jobs are still queued.
	MaxQueuedPerClient int
	// ShedLatency, when > 0, is the queue-latency threshold for load
	// shedding: beyond it, new low-priority jobs are rejected (normal
	// priority at twice the threshold) so the daemon degrades instead
	// of collapsing. High-priority jobs are never shed.
	ShedLatency time.Duration
	// FaultInjector, when non-nil, arms the simulate seam (and, when
	// wired via JournalHook, the journal seam) with a deterministic
	// fault schedule. Testing only.
	FaultInjector *FaultInjector
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 65536
	}
	return c
}

// RecoveryStatus summarizes what journal replay did at construction.
type RecoveryStatus struct {
	// Enabled reports whether a journal is configured at all.
	Enabled bool `json:"enabled"`
	// Records and Skipped count replayed journal records and damaged
	// lines (torn tails, CRC mismatches) the lenient replayer dropped.
	Records int `json:"records"`
	Skipped int `json:"skipped"`
	// RestoredTerminal jobs were terminal in the journal and restored
	// for status queries only.
	RestoredTerminal int `json:"restored_terminal"`
	// Requeued jobs were un-terminal and re-entered the queue in their
	// original submission order.
	Requeued int `json:"requeued"`
	// Interrupted counts requeued jobs that had lost in-flight work
	// (running at crash time, or interrupted by an earlier drain).
	Interrupted int `json:"interrupted"`
	// Unrecoverable jobs could not be resurrected (no usable spec, or
	// attempt budget exhausted) and were journaled as failed.
	Unrecoverable int `json:"unrecoverable"`
	// AppendErrors counts journal appends that have failed since boot
	// (the daemon keeps serving, but durability is degraded).
	AppendErrors int64 `json:"append_errors"`
}

// Manager owns the job table, the admission queue, and the worker pool.
type Manager struct {
	cfg        Config
	policy     RetryPolicy
	reg        *Registry
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for stable listings
	seq      int64
	draining bool
	buckets  map[string]*tokenBucket
	queuedAt map[string]time.Time
	queuedBy map[string]int
	recovery RecoveryStatus

	journalErrs atomic.Int64

	// now is the clock, overridable in admission tests.
	now func() time.Time

	// simulate is the run entry point, overridable in tests to inject
	// blocking or failing runs without a real chip. ctx is the per-job
	// context (canceled by Cancel, Drain, or process teardown); the
	// default implementation threads it through WithContext.
	simulate func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error)
}

// NewManager starts a manager over the registry with cfg.Concurrency
// workers, replaying cfg.Journal first when one is configured. Call
// Drain to stop it.
func NewManager(reg *Registry, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:        cfg,
		policy:     cfg.Retry.withDefaults(),
		reg:        reg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		buckets:    map[string]*tokenBucket{},
		queuedAt:   map[string]time.Time{},
		queuedBy:   map[string]int{},
		now:        time.Now,
		simulate: func(ctx context.Context, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts ...fingers.SimOption) (fingers.SimReport, error) {
			return fingers.Simulate(arch, g, plans, append(opts, fingers.WithContext(ctx))...)
		},
	}
	m.recoverJobs()
	for i := 0; i < cfg.Concurrency; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// newJob builds an admitted or replayed job. Its record names the
// canonical graph from the start; the full graph summary replaces it
// once a worker has the graph loaded.
func (m *Manager) newJob(id, clientID string, spec fingers.JobSpec, attempt int) *Job {
	ctx, cancel := context.WithCancelCause(m.baseCtx)
	return &Job{ID: id, Spec: spec, ClientID: clientID, ctx: ctx, cancel: cancel,
		done: make(chan struct{}), attemptN: max(attempt, 1), gi: telemetry.GraphInfo{Name: spec.Graph}}
}

// clampShards bounds spec's sim_shards by the job's PE count and the
// server's MaxShards, so every record of the job, live or final, names
// the shard count that runs.
func (m *Manager) clampShards(spec *fingers.JobSpec) {
	spec.SimShards = min(spec.SimShards, max(spec.PEs, 1))
	if m.cfg.MaxShards > 0 {
		spec.SimShards = min(spec.SimShards, m.cfg.MaxShards)
	}
}

// recoverJobs creates the admission queue and replays the configured
// journal into the job table: terminal jobs are restored as history,
// un-terminal jobs re-enter the queue in original submission order.
// The queue holds at least every un-terminal job the journal names.
// Jobs that were running at crash time get the interrupted record the
// crash prevented, their attempt advanced, and the recovered-from-crash
// mark.
func (m *Manager) recoverJobs() {
	var states []journal.JobState
	if jn := m.cfg.Journal; jn != nil {
		recs := jn.Replayed()
		states = journal.Reduce(recs)
		m.recovery = RecoveryStatus{Enabled: true, Records: len(recs), Skipped: len(jn.Skips())}
	}
	unfinished := 0
	for _, st := range states {
		if !journal.Terminal(st.Event) {
			unfinished++
		}
	}
	m.queue = make(chan *Job, max(m.cfg.QueueDepth, unfinished))

	m.mu.Lock() // moves into the queue are made under m.mu
	defer m.mu.Unlock()
	for _, st := range states {
		var n int64
		if _, err := fmt.Sscanf(st.Job, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		var spec fingers.JobSpec
		specErr := json.Unmarshal(st.Spec, &spec)
		m.clampShards(&spec)
		j := m.newJob(st.Job, st.Client, spec, st.Attempt)
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)

		if journal.Terminal(st.Event) {
			var err error
			if st.Err != "" {
				err = errors.New(st.Err)
			}
			m.transition(j, State(st.Event), "", err, nil)
			m.recovery.RestoredTerminal++
			continue
		}
		if specErr != nil {
			m.transition(j, StateFailed, journal.EventFailed, &Failure{Class: ClassPermanent, Attempt: j.attemptN,
				Err: errors.New("service: journal replay: no usable spec")}, nil)
			m.recovery.Unrecoverable++
			continue
		}
		lost := st.Event == journal.EventStarted
		j.Recovered = lost || st.Event == journal.EventInterrupted
		if j.Recovered {
			m.recovery.Interrupted++
		}
		next := j.attemptN // the attempt the job runs next
		if lost {
			next++ // the crash cost an attempt
		}
		if next > m.policy.Budget(spec) {
			j.attemptN = next
			m.transition(j, StateFailed, journal.EventFailed, &Failure{Class: ClassTransient, Attempt: next,
				Err: errors.New("service: attempt budget exhausted recovering from crash")}, nil)
			m.recovery.Unrecoverable++
			continue
		}
		if lost {
			// The in-flight attempt died with the process: journal the
			// interruption the crash prevented and queue the next attempt.
			m.transition(j, StateQueued, journal.EventInterrupted, ErrDrainInterrupted, nil)
		} else {
			m.transition(j, StateQueued, "", nil, nil)
		}
		m.recovery.Requeued++
	}
}

// Recovery reports the journal replay summary plus the live count of
// failed appends since boot.
func (m *Manager) Recovery() RecoveryStatus {
	m.mu.Lock()
	rs := m.recovery
	m.mu.Unlock()
	rs.AppendErrors = m.journalErrs.Load()
	return rs
}

// QueueDepth reports (queued jobs, queue capacity).
func (m *Manager) QueueDepth() (int, int) {
	return len(m.queue), cap(m.queue)
}

// Registry returns the graph registry the manager serves from.
func (m *Manager) Registry() *Registry { return m.reg }

// SubmitFrom validates and admits one job on behalf of clientID. The
// spec's graph name is canonicalized against the registry (unknown
// names return the *datasets.NotFoundError), the timeout is defaulted
// and clamped, sim_shards is clamped, per-client admission control is
// applied (rate limit, queue fair share, load shedding — each rejecting
// with an *AdmissionError), the admission is journaled, and the job is
// placed on the queue. ErrDraining and ErrQueueFull report the two
// queue-level admission failures.
func (m *Manager) SubmitFrom(clientID string, spec fingers.JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	canon, err := m.reg.Resolve(spec.Graph)
	if err != nil {
		return nil, err
	}
	spec.Graph = canon
	if spec.TimeoutMS == 0 && m.cfg.DefaultTimeout > 0 {
		spec.TimeoutMS = m.cfg.DefaultTimeout.Milliseconds()
	}
	if m.cfg.MaxTimeout > 0 && spec.Timeout() > m.cfg.MaxTimeout {
		spec.TimeoutMS = m.cfg.MaxTimeout.Milliseconds()
	}
	m.clampShards(&spec)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	if err := m.admitLocked(clientID, spec, m.now()); err != nil {
		return nil, err
	}
	if len(m.queue) == cap(m.queue) {
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, cap(m.queue))
	}
	m.seq++
	j := m.newJob(fmt.Sprintf("job-%06d", m.seq), clientID, spec, 1)
	// Write-ahead: the admission is durable before it is acknowledged.
	// A failed append rejects the submission — accepting a job the
	// journal does not know about would break the recovery invariant.
	if err := m.transition(j, StateQueued, journal.EventSubmitted, nil, nil); err != nil {
		j.cancel(nil)
		m.seq--
		return nil, fmt.Errorf("service: journal admission: %w", err)
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	return j, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job's status in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// Cancel stops the job: a queued job is finalized without running, a
// running job stops within one cancellation quantum and flushes its
// partial record, a job waiting out a retry backoff is finalized
// immediately. Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.cancel(errClientCanceled)
	return j, true
}

// Drain stops admission, lets running and queued jobs proceed for up to
// grace, then cancels everything still in flight with the
// ErrDrainInterrupted cause — so those jobs finalize (and journal) as
// interrupted, resumable by a restart — and waits for the workers and
// retry waiters to exit. It is idempotent; the first call wins.
func (m *Manager) Drain(grace time.Duration) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		select {
		case <-done:
			m.baseCancel(ErrDrainInterrupted)
			return
		case <-time.After(grace):
		}
	}
	m.baseCancel(ErrDrainInterrupted)
	<-done
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// worker consumes the admission queue until Drain closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one dequeued job under its per-job context (canceled by
// Cancel, Drain, or its own deadline via WithTimeout inside Simulate).
func (m *Manager) run(j *Job) {
	if j.ctx.Err() != nil {
		// Canceled while queued: finalize without running.
		m.finish(j, fingers.SimReport{}, context.Cause(j.ctx))
		return
	}
	m.transition(j, StateRunning, journal.EventStarted, nil, nil)

	entry, err := m.reg.Get(j.Spec.Graph)
	if err != nil {
		m.finish(j, fingers.SimReport{}, err)
		return
	}
	j.mu.Lock()
	j.gi = entry.Info
	j.mu.Unlock()

	arch, err := j.Spec.ArchValue()
	if err != nil {
		m.finish(j, fingers.SimReport{}, err)
		return
	}
	plans, err := j.Spec.Plans()
	if err != nil {
		m.finish(j, fingers.SimReport{}, err)
		return
	}
	opts, err := j.Spec.ToOptions()
	if err != nil {
		m.finish(j, fingers.SimReport{}, err)
		return
	}
	opts = append(opts,
		fingers.WithProgress(m.cfg.ProgressEvery, func(p fingers.SimProgress) {
			j.mu.Lock()
			j.progress = p
			j.mu.Unlock()
		}),
	)
	rep, err := m.runSimulate(j, arch, entry.Graph, plans, opts)
	m.finish(j, rep, err)
}

// runSimulate is the injectable simulate seam: the fault injector
// fires first, and a panic anywhere below (an injected one, or a stub
// in tests — the real Simulate recovers its own) is converted to a
// *simerr.SimError so it classifies as transient instead of killing
// the worker.
func (m *Manager) runSimulate(j *Job, arch fingers.Arch, g *fingers.Graph, plans []*fingers.Plan, opts []fingers.SimOption) (rep fingers.SimReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = simerr.FromPanic("service", simerr.NoPE, 0, simerr.NoRoot, r)
		}
	}()
	if err := m.cfg.FaultInjector.Fire(OpSimulate); err != nil {
		return fingers.SimReport{}, err
	}
	return m.simulate(j.ctx, arch, g, plans, opts...)
}

// finish classifies a run outcome. A retryable failure with attempts
// left re-enters the queue after a backoff; every other outcome is the
// job's terminal move, which carries the run's report (and so a record)
// unless the run failed before simulating anything.
func (m *Manager) finish(j *Job, rep fingers.SimReport, runErr error) {
	state := StateDone
	switch {
	case runErr == nil:
		state = StateDone
	case errors.Is(runErr, context.DeadlineExceeded):
		state = StateDeadline
	case errors.Is(runErr, context.Canceled):
		if errors.Is(runErr, ErrDrainInterrupted) || errors.Is(context.Cause(j.ctx), ErrDrainInterrupted) {
			state = StateInterrupted
		} else {
			state = StateCanceled
		}
	default:
		state = StateFailed
	}

	var jobErr error = runErr
	if state == StateFailed || state == StateDeadline {
		attempt := j.Attempt()
		failure := &Failure{Class: Classify(runErr), Attempt: attempt, Err: runErr}
		if state == StateFailed {
			jobErr = failure
		}
		if failure.Retryable(j.Spec) && attempt < m.policy.Budget(j.Spec) &&
			j.ctx.Err() == nil && !m.Draining() {
			failure.RetryAfter = m.policy.Backoff(attempt)
			m.transition(j, StateQueued, journal.EventRequeued, failure, nil)
			m.wg.Add(1)
			go m.retryWaiter(j, failure.RetryAfter)
			return
		}
	}
	var out *fingers.SimReport
	if runErr == nil || rep.Partial {
		out = &rep
	}
	m.transition(j, state, string(state), jobErr, out)
}

// retryWaiter sleeps out the backoff and moves the job back into the
// queue; cancellation or drain during the wait finalizes the job
// instead (canceled or interrupted by cause).
func (m *Manager) retryWaiter(j *Job, delay time.Duration) {
	defer m.wg.Done()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-j.ctx.Done():
			m.finish(j, fingers.SimReport{}, context.Cause(j.ctx))
			return
		case <-timer.C:
		}
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			m.finish(j, fingers.SimReport{}, ErrDrainInterrupted)
			return
		}
		if len(m.queue) < cap(m.queue) {
			m.transition(j, StateQueued, "", nil, nil)
			m.mu.Unlock()
			return
		}
		// Queue momentarily full; try again shortly. The slot race is
		// benign — the job already passed admission.
		m.mu.Unlock()
		timer.Reset(50 * time.Millisecond)
	}
}

// transition moves j to state to, journaling event unless it is empty
// (a move the journal already implies: a state restored by replay, or
// the end of a retry backoff). It is the one place a job changes state. Under j.mu it writes the state and what
// the move implies, stamped from m.now:
//
//   - into the queue: submitted_at on first admission; a requeued or
//     interrupted move advances the attempt (the requeued record names
//     the attempt it queues, the interrupted record the one that was
//     lost); a *Failure with a RetryAfter parks the job until
//     retry_at instead of queueing it;
//   - running: started_at;
//   - terminal: finished_at (unless restored from the journal) and,
//     when rep is non-nil, the run record built from it.
//
// A non-nil err becomes the job's error; a terminal move sets it even
// when nil. After the journal append, transition keeps the queue's
// books: a job entering the queue is sent on it and counted — callers
// hold m.mu for those moves and have checked capacity — and a job
// leaving it is counted out. A terminal move then releases the job's
// context, closes Done, and writes the record to the run log.
//
// The first terminal move wins: moves out of a terminal state are
// ignored. Only the admission's journal error is returned, so the
// submission can be rejected; later append failures are counted.
func (m *Manager) transition(j *Job, to State, event string, err error, rep *fingers.SimReport) error {
	j.mu.Lock()
	from, waiting := j.state, !j.retryAt.IsZero()
	if from.Terminal() {
		j.mu.Unlock()
		return nil
	}
	now := m.now()
	attempt, msg := j.attemptN, ""
	if err != nil {
		msg = err.Error()
	}
	switch {
	case to == StateQueued:
		if j.submittedAt.IsZero() {
			j.submittedAt = now
		}
		if event == journal.EventRequeued || event == journal.EventInterrupted {
			j.attemptN++
			if event == journal.EventRequeued {
				attempt = j.attemptN
			}
			j.progress = accel.Progress{}
		}
		j.retryAt = time.Time{}
		var f *Failure
		if errors.As(err, &f) && f.RetryAfter > 0 {
			j.retryAt = now.Add(f.RetryAfter)
			msg = f.Err.Error() // the requeued record names the cause
		}
	case to == StateRunning:
		j.startedAt = now
	case event != "":
		j.finishedAt = now
	}
	j.state = to
	if err != nil || to.Terminal() {
		j.err = err
	}
	if rep != nil {
		r := m.record(j, rep)
		j.record = &r
	}
	rec := j.record
	enqueue := to == StateQueued && j.retryAt.IsZero()
	j.mu.Unlock()

	if jn := m.cfg.Journal; jn != nil && event != "" {
		jr := journal.Record{Job: j.ID, Event: event, Attempt: attempt, Client: j.ClientID, Err: msg,
			At: now.UTC().Format(time.RFC3339Nano)}
		if event == journal.EventSubmitted || event == journal.EventRequeued {
			jr.Spec, _ = json.Marshal(j.Spec)
		}
		if _, aerr := jn.Append(jr); aerr != nil {
			m.journalErrs.Add(1)
			if event == journal.EventSubmitted {
				return aerr
			}
		}
	}

	switch {
	case enqueue:
		m.queue <- j // cannot block: the caller checked capacity under m.mu
		m.queuedAt[j.ID] = now
		if j.ClientID != "" {
			m.queuedBy[j.ClientID]++
		}
	case from == StateQueued && !waiting:
		m.mu.Lock()
		delete(m.queuedAt, j.ID)
		if j.ClientID != "" {
			if m.queuedBy[j.ClientID]--; m.queuedBy[j.ClientID] <= 0 {
				delete(m.queuedBy, j.ClientID)
			}
		}
		m.mu.Unlock()
	}

	if to.Terminal() {
		j.cancel(nil)
		close(j.done)
		if rec != nil && m.cfg.Log != nil {
			_ = m.cfg.Log.Write(*rec)
		}
	}
	return nil
}

// snapshot returns j's fingers.run/v1 record as of now, with the state
// it describes: the run record of a terminal job that has one, else a
// partial record of the job's live progress.
func (m *Manager) snapshot(j *Job) (telemetry.RunRecord, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.record != nil {
		return *j.record, j.state
	}
	return m.record(j, nil), j.state
}

// record is the one builder of a job's fingers.run/v1 records: the run
// fields from fingers.NewRunRecord, exactly as fingersim and the
// experiments build them, plus the job's provenance. rep is the run's
// report; nil builds a live record, Partial, whose cycles are the
// frontmost simulated clock and whose counts are not yet known. A
// terminal job's record carries job_state and, once it ran, wall_ns.
// Callers hold j.mu.
func (m *Manager) record(j *Job, rep *fingers.SimReport) telemetry.RunRecord {
	spec := j.Spec
	if rep == nil {
		rep = &fingers.SimReport{Result: fingers.SimResult{Cycles: j.progress.Now}, Partial: true, Shards: spec.SimShards}
	}
	arch, _ := spec.ArchValue()
	rec := fingers.NewRunRecord(arch, "service", j.gi, spec.Pattern,
		max(spec.PEs, 1), spec.AcceleratorConfig().NumIUs, spec.CacheBytes(), *rep)
	rec.Meta.StartedAt = rfc3339(j.startedAt)
	rec.Meta.RunTag = spec.RunTag
	rec.Meta.JobID = j.ID
	rec.Meta.Attempt = j.attemptN
	rec.Meta.ClientID = j.ClientID
	rec.Meta.RecoveredFromCrash = j.Recovered
	if j.state.Terminal() {
		rec.Meta.JobState = string(j.state)
		if !j.startedAt.IsZero() {
			rec.Meta.WallNS = j.finishedAt.Sub(j.startedAt).Nanoseconds()
		}
	}
	m.cfg.Meta.Fill(&rec.Meta)
	return rec
}
