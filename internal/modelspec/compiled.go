package modelspec

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"weak"

	"vbrsim/internal/core"
	"vbrsim/internal/dist"
	"vbrsim/internal/hosking"
	"vbrsim/internal/streamblock"
	"vbrsim/internal/transform"
)

// compiled is the per-model state of a Gaussian engine: everything an open
// costs except the seed's own arena. Every open stream of one spec content
// shares one entry, so a multiplexing study of N sources of one model, or a
// trunk of N identical components, pays for the model once. It is immutable
// apart from the implied-ACF memo.
type compiled struct {
	trunc  *hosking.Truncated
	target dist.Distribution
	eng    *streamblock.Engine // block engine only
	lut    *transform.LUT      // block engine only

	mu      sync.Mutex
	atten   float64   // the marginal's attenuation a; set with implied
	implied []float64 // attenuated implied ACF, the longest prefix asked for so far
}

// compiledKey is a spec's full generation content. The ACF is keyed by its
// canonical JSON rather than the plan fingerprint: the block engine's
// Davies-Harte plan reads the ACF past the Hosking plan's length.
type compiledKey struct {
	engine   string
	tol      float64
	acf      string
	marginal string
}

// compiledCache maps spec content to its compiled entry. Entries are held
// weakly and drop out once no open stream references them, so the map pins
// nothing and needs no cap.
var compiledCache struct {
	mu sync.Mutex
	m  map[compiledKey]weak.Pointer[compiled]
}

// compile returns the shared entry for a Gaussian spec, building it (plus
// whatever build adds for the engine) on a miss. The truncation is always
// acquired first, through the plan cache: an entry hits only while it holds
// that very truncation, so a purged or evicted plan turns the next open
// cold exactly as if no entry existed.
func compile(ctx context.Context, s *Spec, p *parts, tol float64, build func(*compiled) error) (*compiled, error) {
	trunc, err := core.TruncatedPlanForCtx(ctx, p.model, 0, tol)
	if err != nil {
		return nil, err
	}
	key, keyed := s.contentKey(tol)
	if keyed {
		if c := lookupCompiled(key, trunc); c != nil {
			return c, nil
		}
	}
	c := &compiled{trunc: trunc, target: p.target}
	if build != nil {
		if err := build(c); err != nil {
			return nil, err
		}
	}
	if keyed {
		c = storeCompiled(key, c)
	}
	return c, nil
}

// contentKey returns the spec's cache key; false when the spec does not
// marshal (it then opens uncached).
func (s *Spec) contentKey(tol float64) (compiledKey, bool) {
	a, err := json.Marshal(s.ACF)
	if err != nil {
		return compiledKey{}, false
	}
	m, err := json.Marshal(s.Marginal)
	if err != nil {
		return compiledKey{}, false
	}
	return compiledKey{engine: s.engineName(), tol: tol, acf: string(a), marginal: string(m)}, true
}

// lookupCompiled returns the live entry for key built on trunc, or nil.
func lookupCompiled(key compiledKey, trunc *hosking.Truncated) *compiled {
	compiledCache.mu.Lock()
	defer compiledCache.mu.Unlock()
	if c := compiledCache.m[key].Value(); c != nil && c.trunc == trunc {
		return c
	}
	return nil
}

// storeCompiled publishes c under key and returns the entry to use. When a
// concurrent miss already published an entry on the same truncation, that
// one wins and c is dropped: the builds are deterministic, so either is
// correct, and returning the published one keeps the sharing.
func storeCompiled(key compiledKey, c *compiled) *compiled {
	compiledCache.mu.Lock()
	defer compiledCache.mu.Unlock()
	if old := compiledCache.m[key].Value(); old != nil && old.trunc == c.trunc {
		return old
	}
	if compiledCache.m == nil {
		compiledCache.m = make(map[compiledKey]weak.Pointer[compiled])
	}
	compiledCache.m[key] = weak.Make(c)
	runtime.AddCleanup(c, dropCompiled, key)
	return c
}

// dropCompiled deletes key once its entry is unreachable. A newer live
// entry published under the same key stays.
func dropCompiled(key compiledKey) {
	compiledCache.mu.Lock()
	defer compiledCache.mu.Unlock()
	if wp, ok := compiledCache.m[key]; ok && wp.Value() == nil {
		delete(compiledCache.m, key)
	}
}

// impliedACF returns a copy of the attenuated implied ACF at lags
// 0..lags-1, extending the memo when lags exceeds it. The AR extension is
// a recursion over earlier lags, so every prefix of a longer evaluation is
// bit-identical to the shorter one.
func (c *compiled) impliedACF(lags int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.implied) < lags {
		if c.implied == nil {
			c.atten = transform.New(c.target).Attenuation()
		}
		rho := c.trunc.ImpliedACF(lags)
		for k := 1; k < len(rho); k++ {
			rho[k] *= c.atten
		}
		c.implied = rho
	}
	return slices.Clone(c.implied[:lags])
}
