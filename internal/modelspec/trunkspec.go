// Trunk specs: the wire format for superposed traffic — a weighted list of
// component model specs whose streams are summed into one aggregate arrival
// process (an ATM/ISP trunk carrying many video sources). The trunk engine
// in internal/trunk materializes these; trafficd serves them as "trunk"
// sessions through the same frames/step/seek paths as single streams.
package modelspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// MaxTrunkSources bounds the flattened source count of a trunk spec: large
// enough for fleet-scale aggregates, small enough that a hostile spec
// cannot ask one session to materialize millions of generators.
const MaxTrunkSources = 65536

// TrunkSpec is a serializable trunk: N weighted component streams summed
// into one aggregate process. Every flattened source draws its seed from
// the trunk seed by SplitMix64 derivation (trunk.SourceSeed), so the
// aggregate is reproducible from the spec alone and component replicas are
// independent.
type TrunkSpec struct {
	// Name labels the trunk (becomes the default session name).
	Name string `json:"name,omitempty"`
	// Seed keys the whole trunk. 0 lets the server assign one (returned to
	// the client so the aggregate stays reproducible). Component specs must
	// leave their own Seed zero: per-source seeds are derived.
	Seed uint64 `json:"seed,omitempty"`
	// Components are the weighted source groups, Count replicas each.
	Components []TrunkComponent `json:"components"`
	// Marginal, when set, is the shared foreground marginal inherited by
	// components that carry none. Engines whose registration generates its
	// own marginal ("gop") never inherit it.
	Marginal *MarginalSpec `json:"marginal,omitempty"`
}

// TrunkComponent is one weighted source group in a trunk.
type TrunkComponent struct {
	// Weight scales the group's contribution to the aggregate; 0 means 1.
	Weight float64 `json:"weight,omitempty"`
	// Count replicates the component; 0 means 1. Replicas are independent
	// sources: each gets its own derived seed.
	Count int `json:"count,omitempty"`
	// Spec is the component model (any engine: truncated, block, gop, tes;
	// any ACF family: composite, farima, fgn).
	Spec Spec `json:"spec"`
}

// resolved returns the component with defaults filled and the shared
// marginal inherited where applicable.
func (c TrunkComponent) resolved(shared *MarginalSpec) TrunkComponent {
	if c.Weight == 0 {
		c.Weight = 1
	}
	if c.Count == 0 {
		c.Count = 1
	}
	if reg := c.Spec.reg(); reg != nil && !reg.ownMarginal && c.Spec.Marginal == nil {
		c.Spec.Marginal = shared
	}
	return c
}

// Resolved returns the components with defaults filled (Weight 1, Count 1)
// and the shared marginal applied to components that carry none. The result
// is what the trunk engine materializes; Validate reasons about the same
// view.
func (t *TrunkSpec) Resolved() []TrunkComponent {
	out := make([]TrunkComponent, len(t.Components))
	for i, c := range t.Components {
		out[i] = c.resolved(t.Marginal)
	}
	return out
}

// NumSources returns the flattened source count (sum of component counts
// after defaulting).
func (t *TrunkSpec) NumSources() int {
	n := 0
	for _, c := range t.Components {
		if c.Count == 0 {
			n++
		} else {
			n += c.Count
		}
	}
	return n
}

// Validate checks the trunk without building plans: at least one source,
// positive weights, non-negative counts, a bounded flattened source total,
// derived-only component seeds, and per-component spec validity (with the
// shared marginal applied).
func (t *TrunkSpec) Validate() error {
	if len(t.Components) == 0 {
		return errors.New("modelspec: trunk needs at least one component (zero sources)")
	}
	if t.Marginal != nil {
		if _, err := t.Marginal.Distribution(); err != nil {
			return err
		}
	}
	total := 0
	for i, c := range t.Components {
		if c.Weight < 0 {
			return fmt.Errorf("modelspec: trunk component %d: negative weight %v", i, c.Weight)
		}
		if c.Count < 0 {
			return fmt.Errorf("modelspec: trunk component %d: negative count %d", i, c.Count)
		}
		if c.Count > MaxTrunkSources {
			return fmt.Errorf("modelspec: trunk component %d: count %d over the source cap %d", i, c.Count, MaxTrunkSources)
		}
		if c.Spec.Seed != 0 {
			return fmt.Errorf("modelspec: trunk component %d: component seeds are derived from the trunk seed; leave seed unset", i)
		}
		r := c.resolved(t.Marginal)
		if err := r.Spec.Validate(); err != nil {
			return fmt.Errorf("modelspec: trunk component %d: %w", i, err)
		}
		// Both terms are at most the cap, so the sum cannot overflow.
		if total += r.Count; total > MaxTrunkSources {
			return fmt.Errorf("modelspec: trunk has over %d sources, the cap", MaxTrunkSources)
		}
	}
	return nil
}

// ParseTrunk decodes and validates a JSON trunk spec. Unknown fields are
// rejected, as in Parse.
func ParseTrunk(data []byte) (*TrunkSpec, error) {
	var t TrunkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("modelspec: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
