// Resilient execution driver: ColorContext wraps the GPU coloring
// algorithms in a recovery ladder so callers always get a verified proper
// coloring or a structured, typed error — even with a fault injector
// flipping bits under the kernels. The ladder, cheapest rung first:
//
//  1. validate — every run is checked by color.Verify (this has always
//     been true; finish() does it);
//  2. repair — a run that completed with a damaged coloring is fixed
//     host-side by color.Repair, recoloring only the offending vertices;
//  3. retry — a run that failed structurally (watchdog, budget, iteration
//     cap, invalid worklists) is re-run with a reseeded priority hash,
//     shifting both the algorithm's choices and the fault pattern's
//     alignment;
//  4. degrade — when the GPU attempts are exhausted, the CPU greedy
//     baseline produces the coloring.
//
// Recovery never changes fault-free behaviour: with Device.Fault == nil a
// first attempt succeeds and returns bit-identical Results (colors and
// cycles) to the plain Color call.
package gpucolor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// repairScratch pools the rung-2 repair buffers so repeated recoveries on
// the serving path stay allocation-free once warm.
var repairScratch = sync.Pool{New: func() any { return new(color.Scratch) }}

// Typed failures, usable with errors.Is / errors.As.
var (
	// ErrMaxIterations reports that a run hit the Options.MaxIterations
	// safety cap without converging.
	ErrMaxIterations = errors.New("iteration limit reached")
	// ErrWatchdog reports livelock: the active-vertex count made no
	// progress for ResilientOptions.StallWindow consecutive iterations.
	ErrWatchdog = errors.New("watchdog: no cross-iteration progress")
	// ErrBudgetExceeded reports that a run overran its simulated-cycle
	// budget.
	ErrBudgetExceeded = errors.New("cycle budget exceeded")
)

// InvalidColoringError reports that a run completed but produced a
// coloring that fails verification. Result carries the damaged result so
// the repair pass can work on it.
type InvalidColoringError struct {
	Result *Result
	Err    error
}

func (e *InvalidColoringError) Error() string {
	return fmt.Sprintf("gpucolor: produced invalid coloring: %v", e.Err)
}

func (e *InvalidColoringError) Unwrap() error { return e.Err }

// FaultError wraps a run failure that happened with a fault injector
// armed, attaching the injector's counters at failure time.
type FaultError struct {
	Stats simt.FaultStats
	Err   error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("gpucolor: failed under fault injection (%d faults injected): %v",
		e.Stats.Injected(), e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// RecoveryLevel records which rung of the recovery ladder produced the
// final coloring.
type RecoveryLevel int

const (
	// RecoveryNone: the first GPU attempt verified clean.
	RecoveryNone RecoveryLevel = iota
	// RecoveryRepair: the GPU coloring was damaged and repaired host-side.
	RecoveryRepair
	// RecoveryRetry: a reseeded GPU re-run succeeded after earlier
	// attempts failed.
	RecoveryRetry
	// RecoveryCPU: all GPU attempts failed; the CPU greedy baseline
	// produced the coloring.
	RecoveryCPU
)

// String implements fmt.Stringer.
func (l RecoveryLevel) String() string {
	switch l {
	case RecoveryNone:
		return "none"
	case RecoveryRepair:
		return "repair"
	case RecoveryRetry:
		return "retry"
	case RecoveryCPU:
		return "cpu-fallback"
	default:
		return fmt.Sprintf("recovery(%d)", int(l))
	}
}

// OutcomeKind is the typed classification of one resilient run, the form
// the serving layer's device-health scorer consumes. It collapses the
// (Outcome, error) pair of ColorContext into a single discriminant: how
// well did the device behave, regardless of whether the request as a whole
// was rescued.
type OutcomeKind int

const (
	// OutcomeSuccess: first GPU attempt verified clean.
	OutcomeSuccess OutcomeKind = iota
	// OutcomeRepaired: the GPU coloring was damaged but repaired host-side.
	OutcomeRepaired
	// OutcomeRetried: a reseeded GPU re-run succeeded after failures.
	OutcomeRetried
	// OutcomeCPUFallback: every GPU attempt failed; the CPU produced the
	// coloring. The request succeeded but the device contributed nothing.
	OutcomeCPUFallback
	// OutcomeWatchdog: the run failed with the livelock watchdog.
	OutcomeWatchdog
	// OutcomeBudget: the run failed by exhausting its cycle budget.
	OutcomeBudget
	// OutcomeCanceled: the caller's context ended the run; says nothing
	// about device health (hedge losers and drained jobs land here).
	OutcomeCanceled
	// OutcomeFailed: any other failure (invalid coloring past repair,
	// iteration cap, fault-wrapped errors).
	OutcomeFailed
)

// String implements fmt.Stringer.
func (k OutcomeKind) String() string {
	switch k {
	case OutcomeSuccess:
		return "success"
	case OutcomeRepaired:
		return "repaired"
	case OutcomeRetried:
		return "retried"
	case OutcomeCPUFallback:
		return "cpu-fallback"
	case OutcomeWatchdog:
		return "watchdog"
	case OutcomeBudget:
		return "budget-exhausted"
	case OutcomeCanceled:
		return "canceled"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", int(k))
	}
}

// Classify maps a ColorContext result pair to its OutcomeKind.
// Cancellation is checked first so a run whose joined attempt errors mix a
// watchdog with a context error is neutral rather than damning: the caller
// gave up, the device was not proven sick.
func Classify(out *Outcome, err error) OutcomeKind {
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return OutcomeCanceled
		case errors.Is(err, ErrWatchdog):
			return OutcomeWatchdog
		case errors.Is(err, ErrBudgetExceeded):
			return OutcomeBudget
		default:
			return OutcomeFailed
		}
	}
	if out == nil {
		return OutcomeFailed
	}
	switch out.Recovery {
	case RecoveryRepair:
		return OutcomeRepaired
	case RecoveryRetry:
		return OutcomeRetried
	case RecoveryCPU:
		return OutcomeCPUFallback
	default:
		return OutcomeSuccess
	}
}

// ResilientOptions configures ColorContext. The embedded Options configure
// each GPU attempt exactly as for Color.
type ResilientOptions struct {
	Options

	// CycleBudget aborts an attempt once its simulated cycles exceed the
	// budget (checked at iteration boundaries); 0 means unlimited. A
	// positive budget runs the attempts accounted even on a Functional
	// device.
	CycleBudget int64
	// StallWindow is the number of consecutive iterations the active
	// count may fail to shrink before the watchdog declares livelock;
	// 0 means 3. Fault-free runs strictly shrink every iteration, so the
	// watchdog never fires on them.
	StallWindow int
	// MaxRetries is the number of reseeded GPU re-runs after the first
	// attempt; 0 means 2, negative means none.
	MaxRetries int
	// NoCPUFallback disables the final degradation to the CPU greedy
	// baseline: exhausted retries return the joined attempt errors
	// instead.
	NoCPUFallback bool
}

func (o ResilientOptions) stallWindow() int {
	if o.StallWindow > 0 {
		return o.StallWindow
	}
	return 3
}

func (o ResilientOptions) retries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	if o.MaxRetries < 0 {
		return 0
	}
	return 2
}

// Outcome is the result of a resilient run: the (always verified) Result
// plus the recovery evidence.
type Outcome struct {
	*Result

	// Attempts is the number of GPU runs performed (0 if the graph went
	// straight to the CPU — not currently possible, but callers should
	// not assume >= 1).
	Attempts int
	// Recovery is the ladder rung that produced Result.
	Recovery RecoveryLevel
	// Repaired is the number of vertices recolored by the repair pass
	// (only non-zero when Recovery == RecoveryRepair).
	Repaired int
	// Faults snapshots the device's fault injector counters at the end of
	// the run (zero when no injector is armed).
	Faults simt.FaultStats
	// AttemptErrors lists the error of every failed GPU attempt, in
	// order; empty on a clean first run.
	AttemptErrors []error
}

// ColorContext colors g with the named algorithm under the resilient
// recovery ladder. It always returns either an Outcome whose coloring
// color.Verify accepts, or a typed error. Cancellation is honoured at
// iteration boundaries and between attempts; the context error is wrapped
// and retrievable with errors.Is.
//
// With dev.Fault == nil and a healthy run, the returned Result is
// bit-identical (colors, cycles, counters) to Color's: the guard hooks add
// no kernels and no cost.
func ColorContext(ctx context.Context, dev *simt.Device, g *graph.Graph, a Algorithm, opt ResilientOptions) (*Outcome, error) {
	if err := checkAlgorithm(a); err != nil {
		return nil, err
	}
	return colorResilient(ctx, dev, g, opt, func(o Options) (*Result, error) {
		return Color(dev, g, a, o)
	})
}

// colorResilient is the recovery ladder over an arbitrary single-attempt
// run function (a transient Color or a pooled Runner.Color).
func colorResilient(ctx context.Context, dev *simt.Device, g *graph.Graph, opt ResilientOptions, run func(Options) (*Result, error)) (*Outcome, error) {
	// The budget guard reads simulated cycles, which only accounted
	// launches produce: a budgeted run is accounted whatever the mode.
	if opt.CycleBudget > 0 && dev.Mode == simt.Functional {
		dev.Mode = simt.Accounted
		defer func() { dev.Mode = simt.Functional }()
	}
	out := &Outcome{}
	baseSeed := opt.Options.seed()
	for attempt := 0; attempt <= opt.retries(); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gpucolor: canceled before attempt %d: %w", attempt+1, err)
		}
		o := opt.Options
		o.Seed = reseed(baseSeed, attempt)
		o.guard = newGuard(ctx, opt)
		res, err := runAttempt(dev, run, o)
		out.Attempts++
		out.Faults = faultStats(dev)
		if err == nil {
			out.Result = res
			if attempt > 0 {
				out.Recovery = RecoveryRetry
			}
			return out, nil
		}

		// Rung 2: a completed-but-damaged coloring is repaired in place.
		var ice *InvalidColoringError
		if errors.As(err, &ice) && ice.Result != nil && len(ice.Result.Colors) == g.NumVertices() {
			sc := repairScratch.Get().(*color.Scratch)
			repaired := color.RepairScratch(g, ice.Result.Colors, uint32(o.Seed), sc)
			repairScratch.Put(sc)
			if verr := color.Verify(g, ice.Result.Colors); verr == nil {
				ice.Result.NumColors = color.NormalizeColors(ice.Result.Colors)
				out.Result = ice.Result
				out.Recovery = RecoveryRepair
				out.Repaired = repaired
				return out, nil
			}
		}

		err = wrapFault(dev, err)
		out.AttemptErrors = append(out.AttemptErrors, fmt.Errorf("attempt %d: %w", attempt+1, err))
		if ctx.Err() != nil {
			return nil, errors.Join(out.AttemptErrors...)
		}
	}

	// Rung 4: graceful degradation to the CPU greedy baseline.
	if opt.NoCPUFallback {
		return nil, errors.Join(out.AttemptErrors...)
	}
	colors := color.Greedy(g, color.Natural, 0)
	if err := color.Verify(g, colors); err != nil {
		// Unreachable for a well-formed graph; surface it rather than
		// returning an unverified coloring.
		out.AttemptErrors = append(out.AttemptErrors, fmt.Errorf("cpu fallback: %w", err))
		return nil, errors.Join(out.AttemptErrors...)
	}
	out.Result = &Result{Colors: colors, NumColors: color.NumColors(colors)}
	out.Recovery = RecoveryCPU
	return out, nil
}

// runAttempt is one GPU run. With a fault injector armed, host-side panics
// on corrupted control data (the device already absorbs kernel-side ones)
// are converted to errors instead of crashing the caller.
func runAttempt(dev *simt.Device, run func(Options) (*Result, error), o Options) (res *Result, err error) {
	if dev.Fault != nil {
		defer func() {
			if p := recover(); p != nil {
				res, err = nil, fmt.Errorf("gpucolor: attempt panicked on corrupted state: %v", p)
			}
		}()
	}
	return run(o)
}

// newGuard builds the iteration-boundary hook enforcing cancellation, the
// cycle budget, and cross-iteration progress (livelock detection).
func newGuard(ctx context.Context, opt ResilientOptions) func(iter, active int, cycles int64) error {
	best := math.MaxInt
	stale := 0
	window := opt.stallWindow()
	budget := opt.CycleBudget
	return func(iter, active int, cycles int64) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("gpucolor: canceled at iteration %d: %w", iter, err)
		}
		if budget > 0 && cycles > budget {
			return fmt.Errorf("gpucolor: %d cycles after %d iterations (budget %d): %w",
				cycles, iter, budget, ErrBudgetExceeded)
		}
		if active < best {
			best = active
			stale = 0
			return nil
		}
		stale++
		if stale >= window {
			return fmt.Errorf("gpucolor: active count stuck at %d for %d iterations: %w",
				active, stale, ErrWatchdog)
		}
		return nil
	}
}

// reseed derives the priority seed of retry attempt k from the base seed;
// attempt 0 keeps the caller's seed so fault-free behaviour is unchanged.
func reseed(base uint32, attempt int) uint32 {
	if attempt == 0 {
		return base
	}
	s := base ^ uint32(attempt)*0x9e3779b9
	if s == 0 {
		s = 1
	}
	return s
}

func faultStats(dev *simt.Device) simt.FaultStats {
	if dev.Fault == nil {
		return simt.FaultStats{}
	}
	return dev.Fault.Stats()
}

// wrapFault attaches the fault counters to a failed attempt's error when
// an injector is armed and has actually fired.
func wrapFault(dev *simt.Device, err error) error {
	if dev.Fault == nil {
		return err
	}
	st := dev.Fault.Stats()
	if st.Injected() == 0 && st.GroupPanics == 0 && st.OOBReads == 0 && st.OOBWrites == 0 && st.OOBAtomics == 0 {
		return err
	}
	return &FaultError{Stats: st, Err: err}
}
