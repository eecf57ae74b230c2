// Fault injection: a deterministic seam for driving the failure paths
// that production traffic only hits at the worst possible moment. An
// injector is armed with an explicit schedule — fire this kind of
// fault at the Nth invocation of this operation — so a chaos test (or
// the CI chaos-smoke job) replays the exact same failure sequence on
// every run. No wall-clock or global RNG feeds the schedule.

package service

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"fingers/internal/journal"
)

// FaultOp names an injectable seam.
type FaultOp string

const (
	// OpSimulate fires inside the manager's run path, immediately
	// before the Simulate call.
	OpSimulate FaultOp = "simulate"
	// OpJournal fires inside the journal's append path, before the
	// record is written (wire via FaultInjector.JournalHook).
	OpJournal FaultOp = "journal"
)

// FaultKind is what happens when a scheduled point fires.
type FaultKind string

const (
	// FaultError returns an ErrInjected-wrapping (and therefore
	// transient, retryable) error from the seam.
	FaultError FaultKind = "error"
	// FaultPanic panics at the seam. The simulate seam recovers it into
	// a *simerr.SimError like any engine panic; the journal seam lets
	// it propagate — a deliberate crash, which is the point of chaos.
	FaultPanic FaultKind = "panic"
	// FaultLatency sleeps for the point's Latency before proceeding.
	FaultLatency FaultKind = "latency"
)

// ErrInjected marks every error the injector produces. It wraps
// ErrRetryable, so injected errors classify as transient.
var ErrInjected = fmt.Errorf("injected fault: %w", ErrRetryable)

// FaultPoint schedules one fault: fire Kind at the Invocation'th call
// (1-based) of Op.
type FaultPoint struct {
	Op         FaultOp
	Kind       FaultKind
	Invocation int64
	// Latency is the injected delay for FaultLatency points.
	Latency time.Duration
}

func (p FaultPoint) String() string {
	if p.Kind == FaultLatency {
		return fmt.Sprintf("%s:latency:%s@%d", p.Op, p.Latency, p.Invocation)
	}
	return fmt.Sprintf("%s:%s@%d", p.Op, p.Kind, p.Invocation)
}

// FaultInjector counts invocations per seam and fires the scheduled
// points. Safe for concurrent use.
type FaultInjector struct {
	mu     sync.Mutex
	counts map[FaultOp]int64
	points []FaultPoint
	// sleep is swappable so latency tests do not wait in real time.
	sleep func(time.Duration)
}

// NewFaultInjector arms an injector with the given schedule.
func NewFaultInjector(points ...FaultPoint) *FaultInjector {
	return &FaultInjector{counts: map[FaultOp]int64{}, points: points, sleep: time.Sleep}
}

// Fire advances op's invocation counter and triggers any point
// scheduled for it: latency sleeps then continues down the schedule,
// an error returns, a panic panics. A nil injector never fires.
func (fi *FaultInjector) Fire(op FaultOp) error {
	if fi == nil {
		return nil
	}
	fi.mu.Lock()
	fi.counts[op]++
	n := fi.counts[op]
	var due []FaultPoint
	for _, p := range fi.points {
		if p.Op == op && p.Invocation == n {
			due = append(due, p)
		}
	}
	fi.mu.Unlock()
	for _, p := range due {
		switch p.Kind {
		case FaultLatency:
			fi.sleep(p.Latency)
		case FaultError:
			return fmt.Errorf("%w: %s", ErrInjected, p)
		case FaultPanic:
			panic(fmt.Sprintf("injected panic: %s", p))
		}
	}
	return nil
}

// JournalHook adapts the injector to the journal's BeforeAppend seam.
func (fi *FaultInjector) JournalHook() func(journal.Record) error {
	return func(journal.Record) error { return fi.Fire(OpJournal) }
}

// ParseFaultSpec parses the -inject flag syntax: a comma-separated
// list of points, each "op:kind@n" or "op:latency:dur@n", e.g.
//
//	simulate:panic@2,journal:error@5,simulate:latency:50ms@1
func ParseFaultSpec(s string) ([]FaultPoint, error) {
	var points []FaultPoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		body, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("service: fault point %q: missing @invocation", part)
		}
		n, err := strconv.ParseInt(at, 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("service: fault point %q: bad invocation %q", part, at)
		}
		fields := strings.Split(body, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("service: fault point %q: want op:kind", part)
		}
		p := FaultPoint{Op: FaultOp(fields[0]), Kind: FaultKind(fields[1]), Invocation: n}
		switch p.Op {
		case OpSimulate, OpJournal:
		default:
			return nil, fmt.Errorf("service: fault point %q: unknown op %q (valid: simulate, journal)", part, fields[0])
		}
		switch p.Kind {
		case FaultError, FaultPanic:
			if len(fields) != 2 {
				return nil, fmt.Errorf("service: fault point %q: trailing fields", part)
			}
		case FaultLatency:
			if len(fields) != 3 {
				return nil, fmt.Errorf("service: fault point %q: latency needs a duration (op:latency:50ms@n)", part)
			}
			d, err := time.ParseDuration(fields[2])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("service: fault point %q: bad duration %q", part, fields[2])
			}
			p.Latency = d
		default:
			return nil, fmt.Errorf("service: fault point %q: unknown kind %q (valid: error, panic, latency)", part, fields[1])
		}
		points = append(points, p)
	}
	if len(points) == 0 {
		return nil, errors.New("service: empty fault spec")
	}
	return points, nil
}
