package server

import (
	"errors"
	"fmt"
	"sync"

	"vbrsim/internal/modelspec"
)

// Admission control sheds load by estimated model cost, not arrival order:
// every create carries a cost in session units (below), the server holds a
// fixed cost budget, and as the budget fills the maximum admissible cost
// shrinks, so a burst of expensive superpositions cannot starve the cheap
// streams that make up the bulk of a large fleet. Rejections are 429 with
// a Retry-After hint; draining stays 503.

// costTrunkBase is the fixed overhead of a trunk session (slab, fan-out
// bookkeeping) on top of its per-source costs, in session units.
const costTrunkBase = 2.0

// kneeCostUnit scales the composite-ACF knee into the plan-size factor:
// the knee bounds the exponential-mixture region the AR plan must resolve,
// so it is the cheapest spec-only proxy for truncation order.
const kneeCostUnit = 256.0

// estimateStreamCost scores a validated stream spec in session units: the
// engine's registered cost class × plan-size factor. It sees only the spec
// (no plan is built), so admission can reject before any expensive work
// happens.
func estimateStreamCost(spec *modelspec.Spec) float64 {
	return spec.CostClass() * planFactor(spec.ACF)
}

// planFactor grows the Gaussian-engine cost with the correlation length
// the plan must resolve. Composite specs scale with the knee; the other
// ACF families (farima, fgn) have no spec-level length knob and score 1,
// as do the engines without a Gaussian background, whose ACF is empty.
func planFactor(acf modelspec.ACFSpec) float64 {
	if acf.Knee > 0 {
		return 1 + float64(acf.Knee)/kneeCostUnit
	}
	return 1
}

// estimateTrunkCost scores a trunk spec: base overhead plus every
// flattened component source at its own engine cost.
func estimateTrunkCost(spec *modelspec.TrunkSpec) float64 {
	cost := costTrunkBase
	for _, c := range spec.Resolved() {
		cost += float64(c.Count) * estimateStreamCost(&c.Spec)
	}
	return cost
}

// admission reject reasons (the reason label on
// vbrsim_server_admission_rejects_total).
const (
	rejectCap      = "cap"      // session-count limit
	rejectBudget   = "budget"   // cost exceeds remaining budget
	rejectPressure = "pressure" // cost too high for the pressure region
	rejectDrain    = "drain"    // server is draining (503, not 429)
)

// pressureKnee is the budget fill fraction beyond which the admissible
// cost tightens from "whatever fits" to half the remaining budget: the
// shed-order rule that keeps cheap sessions landing while expensive ones
// wait out the pressure.
const pressureKnee = 0.75

// admitError is an admission rejection: the reason keys the metrics label
// and the RetryAfter hint lands on the 429.
type admitError struct {
	reason     string
	retryAfter int // seconds
	err        error
}

func (e *admitError) Error() string { return e.err.Error() }

// admission is the cost-budget gate in front of the session registry.
// Reservations are taken before the (expensive, cancellable) stream open
// and released when the open fails or the session is removed, so the
// budget tracks open-or-opening sessions exactly.
type admission struct {
	mu          sync.Mutex
	used        float64
	sessions    int
	budget      float64
	maxSessions int
	draining    bool
}

func newAdmission(budget float64, maxSessions int) *admission {
	return &admission{budget: budget, maxSessions: maxSessions}
}

// reserve admits cost units or explains the rejection. The rules, in
// order: drain rejects everything; the session-count cap is absolute; the
// cost must fit the remaining budget; and above the pressure knee only
// requests at most half the remaining budget get in — so under pressure
// admissibility is monotone in cost: any request cheaper than an admitted
// one would also have been admitted.
func (a *admission) reserve(cost float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return &admitError{reason: rejectDrain, err: errDraining}
	}
	if a.sessions >= a.maxSessions {
		return &admitError{reason: rejectCap, retryAfter: 2, err: errSessionCap}
	}
	remaining := a.budget - a.used
	if cost > remaining {
		return &admitError{
			reason: rejectBudget, retryAfter: 2,
			err: fmt.Errorf("session cost %.1f exceeds remaining budget %.1f of %.1f", cost, remaining, a.budget),
		}
	}
	if a.used > pressureKnee*a.budget && cost > remaining/2 {
		return &admitError{
			reason: rejectPressure, retryAfter: 1,
			err: fmt.Errorf("session cost %.1f over the pressure limit %.1f (budget %.0f%% full); retry or submit cheaper models", cost, remaining/2, 100*a.used/a.budget),
		}
	}
	a.used += cost
	a.sessions++
	return nil
}

// release returns a reservation (failed open, delete, eviction).
func (a *admission) release(cost float64) {
	a.mu.Lock()
	a.used -= cost
	a.sessions--
	if a.used < 0 || a.sessions < 0 {
		a.mu.Unlock()
		panic("server: admission accounting went negative")
	}
	a.mu.Unlock()
}

// beginDrain flips every future reserve to a drain rejection.
func (a *admission) beginDrain() {
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
}

// isDraining reports the drain flag (healthz).
func (a *admission) isDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// usedCost returns the reserved cost units (the admission gauge).
func (a *admission) usedCost() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// asAdmitError unwraps an admission rejection.
func asAdmitError(err error) (*admitError, bool) {
	var ae *admitError
	ok := errors.As(err, &ae)
	return ae, ok
}
