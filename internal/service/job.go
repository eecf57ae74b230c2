// Job lifecycle: a bounded admission queue feeding a fixed worker pool,
// made crash-safe by a write-ahead journal. Submit validates the spec,
// applies per-client admission control, and journals the admission
// before acknowledging it (so an acknowledged job survives kill -9);
// workers journal each start; and every outcome — done, canceled,
// failed, interrupted — is journaled before the job's Done channel
// closes. On construction the manager replays the journal: terminal
// jobs are restored for status queries, jobs that were queued or
// running at crash time re-enter the queue in their original
// submission order. Transient failures retry with capped exponential
// backoff under a per-job attempt budget; permanent ones fail fast.

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

// eventForState maps a terminal state to its journal event.
func eventForState(s State) string {
	switch s {
	case StateDone:
		return journal.EventDone
	case StateCanceled:
		return journal.EventCanceled
	case StateDeadline:
		return journal.EventDeadline
	case StateInterrupted:
		return journal.EventInterrupted
	default:
		return journal.EventFailed
	}
}

// stateForEvent maps a replayed terminal journal event to its state.
func stateForEvent(ev string) State {
	switch ev {
	case journal.EventDone:
		return StateDone
	case journal.EventCanceled:
		return StateCanceled
	case journal.EventDeadline:
		return StateDeadline
	case journal.EventInterrupted:
		return StateInterrupted
	default:
		return StateFailed
	}
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
	giOK        bool
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
	// present only between a transient failure and its next attempt.
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

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
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
	// OS threads one job may fan out across (on top of the façade's own
	// clamp to the PE count). Zero means no clamp.
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
	pending := m.recoverJobs()
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	m.queue = make(chan *Job, depth)
	for _, j := range pending {
		m.queue <- j
		m.queuedAt[j.ID] = m.now()
		if j.ClientID != "" {
			m.queuedBy[j.ClientID]++
		}
	}
	for i := 0; i < cfg.Concurrency; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// recoverJobs replays the configured journal into the job table:
// terminal jobs are restored as history, un-terminal jobs return as
// the re-enqueue list in original submission order. Jobs that were
// running at crash time get an interrupted record appended now, their
// attempt advanced, and the recovered-from-crash mark.
func (m *Manager) recoverJobs() []*Job {
	jn := m.cfg.Journal
	if jn == nil {
		return nil
	}
	recs := jn.Replayed()
	m.recovery = RecoveryStatus{Enabled: true, Records: len(recs), Skipped: len(jn.Skips())}
	var pending []*Job
	for _, st := range journal.Reduce(recs) {
		var n int64
		if _, err := fmt.Sscanf(st.Job, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		jctx, cancel := context.WithCancelCause(m.baseCtx)
		j := &Job{ID: st.Job, ClientID: st.Client, ctx: jctx, cancel: cancel, done: make(chan struct{})}
		j.attemptN = st.Attempt
		if j.attemptN < 1 {
			j.attemptN = 1
		}
		switch {
		case journal.Terminal(st.Event):
			j.state = stateForEvent(st.Event)
			if st.Err != "" {
				j.err = errors.New(st.Err)
			}
			if len(st.Spec) > 0 {
				_ = json.Unmarshal(st.Spec, &j.Spec)
			}
			cancel(nil)
			close(j.done)
			m.recovery.RestoredTerminal++
		default:
			var spec fingers.JobSpec
			if len(st.Spec) == 0 || json.Unmarshal(st.Spec, &spec) != nil {
				j.state = StateFailed
				j.err = &Failure{Class: ClassPermanent, Attempt: j.attemptN,
					Err: errors.New("service: journal replay: no usable spec")}
				m.appendJournal(journal.Record{Job: j.ID, Event: journal.EventFailed,
					Attempt: j.attemptN, Client: j.ClientID, Err: j.err.Error()})
				cancel(nil)
				close(j.done)
				m.recovery.Unrecoverable++
				break
			}
			j.Spec = spec
			if st.Event == journal.EventStarted {
				// The in-flight attempt died with the process: journal
				// the interruption the crash prevented, then retry.
				m.appendJournal(journal.Record{Job: j.ID, Event: journal.EventInterrupted,
					Attempt: j.attemptN, Client: j.ClientID, Err: ErrDrainInterrupted.Error()})
				j.attemptN++
				j.Recovered = true
				m.recovery.Interrupted++
			}
			if st.Event == journal.EventInterrupted {
				j.Recovered = true
				m.recovery.Interrupted++
			}
			if j.attemptN > m.policy.Budget(spec) {
				j.state = StateFailed
				j.err = &Failure{Class: ClassTransient, Attempt: j.attemptN,
					Err: errors.New("service: attempt budget exhausted recovering from crash")}
				m.appendJournal(journal.Record{Job: j.ID, Event: journal.EventFailed,
					Attempt: j.attemptN, Client: j.ClientID, Err: j.err.Error()})
				cancel(nil)
				close(j.done)
				m.recovery.Unrecoverable++
				break
			}
			j.state = StateQueued
			j.submittedAt = m.now()
			pending = append(pending, j)
			m.recovery.Requeued++
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
	}
	return pending
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

// appendJournal writes one record to the journal, if configured.
// Append failures are counted (and surfaced via Recovery) but do not
// stop the daemon: a lost transition means at worst that a restart
// re-runs the affected job.
func (m *Manager) appendJournal(rec journal.Record) error {
	jn := m.cfg.Journal
	if jn == nil {
		return nil
	}
	if rec.At == "" {
		rec.At = m.now().UTC().Format(time.RFC3339Nano)
	}
	if _, err := jn.Append(rec); err != nil {
		m.journalErrs.Add(1)
		return err
	}
	return nil
}

// journalEvent journals one transition of j. specToo attaches the full
// serialized spec (submitted and requeued events, so replay can
// reconstruct the job from its journal suffix alone).
func (m *Manager) journalEvent(j *Job, event string, attempt int, errMsg string, specToo bool) error {
	rec := journal.Record{Job: j.ID, Event: event, Attempt: attempt, Client: j.ClientID, Err: errMsg}
	if specToo {
		if b, err := json.Marshal(j.Spec); err == nil {
			rec.Spec = b
		}
	}
	return m.appendJournal(rec)
}

// Registry returns the graph registry the manager serves from.
func (m *Manager) Registry() *Registry { return m.reg }

// Submit validates and admits one job with no client attribution.
func (m *Manager) Submit(spec fingers.JobSpec) (*Job, error) {
	return m.SubmitFrom("", spec)
}

// SubmitFrom validates and admits one job on behalf of clientID. The
// spec's graph name is canonicalized against the registry (unknown
// names return the *datasets.NotFoundError), the timeout is defaulted
// and clamped, per-client admission control is applied (rate limit,
// queue fair share, load shedding — each rejecting with an
// *AdmissionError), the admission is journaled, and the job is placed
// on the queue. ErrDraining and ErrQueueFull report the two queue-level
// admission failures.
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
	if m.cfg.MaxShards > 0 && spec.SimShards > m.cfg.MaxShards {
		spec.SimShards = m.cfg.MaxShards
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	now := m.now()
	if err := m.admitLocked(clientID, spec, now); err != nil {
		return nil, err
	}
	if len(m.queue) == cap(m.queue) {
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, cap(m.queue))
	}
	m.seq++
	ctx, cancel := context.WithCancelCause(m.baseCtx)
	j := &Job{
		ID:          fmt.Sprintf("job-%06d", m.seq),
		Spec:        spec,
		ClientID:    clientID,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		state:       StateQueued,
		attemptN:    1,
		submittedAt: now,
	}
	// Write-ahead: the admission is durable before it is acknowledged.
	// A failed append rejects the submission — accepting a job the
	// journal does not know about would break the recovery invariant.
	if err := m.journalEvent(j, journal.EventSubmitted, 1, "", true); err != nil {
		cancel(nil)
		m.seq--
		return nil, fmt.Errorf("service: journal admission: %w", err)
	}
	m.queue <- j // cannot block: capacity was checked under this lock
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.queuedAt[j.ID] = now
	if clientID != "" {
		m.queuedBy[clientID]++
	}
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

// dequeued updates the admission bookkeeping when a worker takes j.
func (m *Manager) dequeued(j *Job) {
	m.mu.Lock()
	delete(m.queuedAt, j.ID)
	if j.ClientID != "" {
		if m.queuedBy[j.ClientID]--; m.queuedBy[j.ClientID] <= 0 {
			delete(m.queuedBy, j.ClientID)
		}
	}
	m.mu.Unlock()
}

// run executes one dequeued job under its per-job context (canceled by
// Cancel, Drain, or its own deadline via WithTimeout inside Simulate).
func (m *Manager) run(j *Job) {
	m.dequeued(j)
	if j.ctx.Err() != nil {
		// Canceled while queued: finalize without running.
		m.finish(j, fingers.SimReport{}, context.Cause(j.ctx))
		return
	}

	attempt := j.Attempt()
	j.mu.Lock()
	j.state = StateRunning
	j.startedAt = m.now()
	j.retryAt = time.Time{}
	j.mu.Unlock()
	_ = m.journalEvent(j, journal.EventStarted, attempt, "", false)

	entry, err := m.reg.Get(j.Spec.Graph)
	if err != nil {
		m.finish(j, fingers.SimReport{}, err)
		return
	}
	j.mu.Lock()
	j.gi, j.giOK = entry.Info, true
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

// finish classifies the run outcome. Terminal outcomes journal their
// event, build the job's record, append it to the run log, and close
// Done; retryable failures re-enter the queue after a backoff instead.
func (m *Manager) finish(j *Job, rep fingers.SimReport, runErr error) {
	state := StateDone
	switch {
	case runErr == nil:
		state = StateDone
	case errors.Is(runErr, context.DeadlineExceeded):
		state = StateDeadline
	case errors.Is(runErr, context.Canceled):
		if errors.Is(context.Cause(j.ctx), ErrDrainInterrupted) {
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
			m.requeue(j, failure)
			return
		}
	}
	m.terminate(j, state, jobErr, rep, runErr)
}

// requeue journals the retry and parks the job until its backoff
// expires, then re-enqueues it. The job stays visible as queued (with
// retry_at) in the meantime; cancellation and drain abort the wait.
func (m *Manager) requeue(j *Job, failure *Failure) {
	j.mu.Lock()
	j.attemptN++
	attempt := j.attemptN
	j.state = StateQueued
	j.err = failure
	j.record = nil
	j.progress = accel.Progress{}
	j.retryAt = m.now().Add(failure.RetryAfter)
	j.mu.Unlock()
	_ = m.journalEvent(j, journal.EventRequeued, attempt, failure.Err.Error(), true)
	m.wg.Add(1)
	go m.retryWaiter(j, failure.RetryAfter)
}

// retryWaiter sleeps out the backoff and pushes the job back on the
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
		select {
		case m.queue <- j:
			m.queuedAt[j.ID] = m.now()
			if j.ClientID != "" {
				m.queuedBy[j.ClientID]++
			}
			m.mu.Unlock()
			return
		default:
			// Queue momentarily full; try again shortly. The slot race
			// is benign — the job already passed admission.
			m.mu.Unlock()
			timer.Reset(50 * time.Millisecond)
		}
	}
}

// terminate finalizes j: terminal state, journal event, record, run
// log, Done. Idempotent — the first terminal transition wins.
func (m *Manager) terminate(j *Job, state State, jobErr error, rep fingers.SimReport, runErr error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = jobErr
	j.finishedAt = m.now()
	var rec *telemetry.RunRecord
	// A failed run with no simulated prefix (load error, bad config)
	// gets no record; everything else — done, canceled, expired,
	// interrupted — does.
	if runErr == nil || rep.Partial {
		r := m.buildRecord(j, rep)
		rec = &r
		j.record = rec
	}
	attempt := j.attemptN
	j.mu.Unlock()
	errMsg := ""
	if jobErr != nil {
		errMsg = jobErr.Error()
	}
	_ = m.journalEvent(j, eventForState(state), attempt, errMsg, false)
	close(j.done)

	if rec != nil && m.cfg.Log != nil {
		_ = m.cfg.Log.Write(*rec)
	}
}

// buildRecord assembles the job's final fingers.run/v1 record.
// Callers hold j.mu.
func (m *Manager) buildRecord(j *Job, rep fingers.SimReport) telemetry.RunRecord {
	rec := m.record(j, rep)
	rec.Meta.WallNS = j.finishedAt.Sub(j.startedAt).Nanoseconds()
	rec.Meta.JobState = string(j.state)
	m.cfg.Meta.Fill(&rec.Meta)
	return rec
}

// PartialRecord builds a live fingers.run/v1 snapshot of a running job
// for the streaming endpoint: Partial is set, Cycles is the frontmost
// simulated clock, and the counts cover nothing yet (they are only
// known at completion). The lenient readers ingest these unchanged and
// the trend tooling excludes partial records from regression math.
func (m *Manager) PartialRecord(j *Job) telemetry.RunRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return m.liveRecord(j)
}

// FinalRecord builds the stream's closing record for a terminal job
// that produced no run record of its own (it failed before
// simulating): a partial snapshot stamped with the terminal state, so
// stream clients always see how the job ended instead of a bare
// connection close.
func (m *Manager) FinalRecord(j *Job) telemetry.RunRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := m.liveRecord(j)
	rec.Meta.JobState = string(j.state)
	return rec
}

// liveRecord is the shared snapshot builder. Its shard count is the
// requested one: the effective count is known only once the run ends.
// Callers hold j.mu.
func (m *Manager) liveRecord(j *Job) telemetry.RunRecord {
	rec := m.record(j, fingers.SimReport{
		Result:  fingers.SimResult{Cycles: j.progress.Now},
		Partial: true,
		Shards:  j.Spec.SimShards,
	})
	m.cfg.Meta.Fill(&rec.Meta)
	return rec
}

// record builds what a job's final and live records share: the run
// fields from fingers.NewRunRecord and the job's provenance. The
// daemon's records carry no per-PE rows. Callers hold j.mu.
func (m *Manager) record(j *Job, rep fingers.SimReport) telemetry.RunRecord {
	spec := j.Spec
	arch, _ := spec.ArchValue()
	rep.PerPE = nil
	rec := fingers.NewRunRecord(arch, "service", j.gi, spec.Pattern,
		max(spec.PEs, 1), spec.AcceleratorConfig().NumIUs, spec.CacheBytes(), rep)
	rec.Meta.StartedAt = rfc3339(j.startedAt)
	rec.Meta.RunTag = spec.RunTag
	rec.Meta.JobID = j.ID
	rec.Meta.Attempt = j.attemptN
	rec.Meta.ClientID = j.ClientID
	rec.Meta.RecoveredFromCrash = j.Recovered
	return rec
}
