package arbods

import (
	"context"

	"arbods/internal/congest"
	"arbods/internal/faultinject"
)

// This file is the serving side of the facade: cancellation, the typed
// errors of a failed run, and fault injection for chaos tests.

// WithContext attaches ctx to a run, making the option-based algorithm
// surface (WeightedDeterministic and friends, the server's solve path)
// cancellable without signature changes. The engine checks ctx once per
// round, so a canceled run returns ctx.Err() within one round. A canceled
// run has no partial results, and a Runner attached with WithRunner is
// immediately reusable: its next run is bit-identical to one on a fresh
// Runner.
func WithContext(ctx context.Context) Option { return congest.WithContext(ctx) }

// ErrPoolClosed is returned by RunnerPool.GetContext when the pool has
// been closed: a caller blocked on checkout fails fast instead of waiting
// forever.
var ErrPoolClosed = congest.ErrPoolClosed

// ErrProcPanic is the sentinel wrapped by every recovered proc panic: a
// Factory, Step, or Output callback that panics fails its own run with a
// *ProcPanicError instead of crashing the process. Match the class with
// errors.Is(err, ErrProcPanic); reach the round, node, and captured stack
// with errors.As and *ProcPanicError. The Runner that hosted the run is
// quarantined — see RunnerPool.Put.
var ErrProcPanic = congest.ErrProcPanic

// ProcPanicError carries the details of a recovered proc panic: the round
// it interrupted (−1 outside the round loop), the node whose callback
// panicked (−1 for engine-internal faults), the panic value, and the
// panicking goroutine's stack.
type ProcPanicError = congest.ProcPanicError

// WithFaultInjection attaches a deterministic fault-injection registry to
// a run: the engine fires the "congest.step" failpoint once per round, so
// chaos tests can panic, delay, or fail a chosen round reproducibly. Runs
// without the option (or with a nil registry) pay a single comparison.
func WithFaultInjection(reg *faultinject.Registry) Option { return congest.WithFaultInjection(reg) }
