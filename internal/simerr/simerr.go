// Package simerr defines the structured failure type shared by every
// execution engine in the repository: the serial event loop
// (internal/accel), the software miner (internal/mine), and the public
// Simulate façade. A SimError pinpoints where a run stopped — which
// engine, which PE or worker, at which simulated cycle, mining which
// root — and wraps the underlying cause, which is either a recovered
// panic (with the goroutine stack captured at the recovery point) or a
// context error for a cancelled or deadline-expired run.
//
// The package deliberately depends on nothing inside the repository so
// every layer, from setops up to the façade, can use it without import
// cycles.
package simerr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
)

// NoPE and NoRoot mark the PE and Root fields as unattributable: the
// failure happened outside any single PE's step (e.g. a cancelled run),
// or the PE was between search trees.
const (
	NoPE   = -1
	NoRoot = -1
)

// SimError is the structured failure of one simulation or mining run.
// It always wraps an underlying cause, so errors.Is(err,
// context.Canceled) and friends keep working through it.
type SimError struct {
	// Engine names the execution engine that failed: "serial",
	// "miner", or "facade".
	Engine string
	// PE is the processing-element (or miner-worker) index the failure
	// is attributed to; NoPE when the failure is not PE-local.
	PE int
	// Cycle is the simulated cycle at the failure point: the failing
	// PE's local clock for a panic, the partially simulated horizon for
	// a cancellation. Zero when the run never started.
	Cycle int64
	// Root is the root vertex of the search tree being mined when the
	// failure hit; NoRoot when unknown or not applicable.
	Root int64
	// Stack is the goroutine stack captured at the recovery point;
	// nil for non-panic failures.
	Stack []byte
	// Err is the underlying cause: the recovered panic value (wrapped)
	// or the context error of a cancelled run.
	Err error
}

// Error renders the failure with its attribution, most specific last.
func (e *SimError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sim: %s engine", e.Engine)
	if e.PE != NoPE {
		fmt.Fprintf(&sb, ", PE %d", e.PE)
	}
	if e.Cycle > 0 {
		fmt.Fprintf(&sb, ", cycle %d", e.Cycle)
	}
	if e.Root != NoRoot {
		fmt.Fprintf(&sb, ", root %d", e.Root)
	}
	fmt.Fprintf(&sb, ": %v", e.Err)
	return sb.String()
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *SimError) Unwrap() error { return e.Err }

// IsCancellation reports whether the failure is a context cancellation
// or deadline expiry rather than a crash.
func (e *SimError) IsCancellation() bool {
	return errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded)
}

// FromPanic converts a recovered panic value into a SimError, capturing
// the current goroutine's stack. Call it only from a deferred function
// whose recover() returned non-nil.
func FromPanic(engine string, pe int, cycle, root int64, recovered interface{}) *SimError {
	var err error
	if cause, ok := recovered.(error); ok {
		err = fmt.Errorf("panic: %w", cause)
	} else {
		err = fmt.Errorf("panic: %v", recovered)
	}
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &SimError{Engine: engine, PE: pe, Cycle: cycle, Root: root, Stack: buf, Err: err}
}

// Cancelled wraps a context error (context.Canceled or
// context.DeadlineExceeded) observed at the given simulated horizon.
func Cancelled(engine string, cycle int64, cause error) *SimError {
	return &SimError{Engine: engine, PE: NoPE, Cycle: cycle, Root: NoRoot, Err: cause}
}

// As extracts a *SimError from an error chain.
func As(err error) (*SimError, bool) {
	var se *SimError
	ok := errors.As(err, &se)
	return se, ok
}
