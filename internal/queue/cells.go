// ATM adaptation and statistical multiplexing. The paper's queue consumes
// abstract "cells per slot"; this file supplies the two pieces a real ATM
// multiplexer study needs on top of it: segmentation of frame bytes into
// fixed-payload cells (with the frame-spreading strategy of Ismail et al.,
// the paper's ref. [15]) and superposition of several independent VBR
// sources into one aggregate arrival process (the statistical-multiplexing
// setting the introduction motivates).
package queue

import (
	"errors"
	"math"
	"sync"

	"vbrsim/internal/rng"
)

// ATMCellPayload is the usable payload of one ATM cell in bytes (48 of the
// 53-byte cell).
const ATMCellPayload = 48

// SegmentIntoCells converts a bytes-per-frame sequence into cells-per-slot:
// each frame's bytes become ceil(bytes/payload) cells, spread as evenly as
// possible over slotsPerFrame consecutive slots (slotsPerFrame = 1 keeps
// the per-frame burst intact). The result has
// len(frameBytes)*slotsPerFrame slots.
func SegmentIntoCells(frameBytes []float64, payload, slotsPerFrame int) ([]float64, error) {
	if payload <= 0 {
		return nil, errors.New("queue: non-positive cell payload")
	}
	if slotsPerFrame <= 0 {
		return nil, errors.New("queue: non-positive slots per frame")
	}
	out := make([]float64, len(frameBytes)*slotsPerFrame)
	for i, b := range frameBytes {
		if b < 0 {
			return nil, errors.New("queue: negative frame size")
		}
		cells := int(math.Ceil(b / float64(payload)))
		base := cells / slotsPerFrame
		extra := cells % slotsPerFrame
		for s := 0; s < slotsPerFrame; s++ {
			n := base
			// The first `extra` slots of the frame carry one extra cell.
			if s < extra {
				n++
			}
			out[i*slotsPerFrame+s] = float64(n)
		}
	}
	return out, nil
}

// CellCount returns the total number of cells a byte sequence segments into.
func CellCount(frameBytes []float64, payload int) (int, error) {
	if payload <= 0 {
		return 0, errors.New("queue: non-positive cell payload")
	}
	total := 0
	for _, b := range frameBytes {
		if b < 0 {
			return 0, errors.New("queue: negative frame size")
		}
		total += int(math.Ceil(b / float64(payload)))
	}
	return total, nil
}

// Superposition multiplexes N independent copies of a base source: each
// replication draws N independent paths (from split random sources) and
// sums them slot-wise. It implements PathSource itself, so superposed
// traffic drops into every estimator unchanged.
type Superposition struct {
	Base PathSource
	N    int
}

// ArrivalPath draws and sums N independent paths.
func (s Superposition) ArrivalPath(r *rng.Source, k int) []float64 {
	sum := make([]float64, k)
	s.ArrivalPathInto(r, sum)
	return sum
}

// ArrivalPathInto sums N independent paths into buf, drawing them exactly
// as the single-component Aggregate{Base, Count: N} does.
func (s Superposition) ArrivalPathInto(r *rng.Source, buf []float64) {
	if s.N <= 0 {
		panic("queue: Superposition with non-positive N")
	}
	Aggregate{Components: []Component{{Source: s.Base, Count: s.N}}}.ArrivalPathInto(r, buf)
}

// Component is one weighted group in a path-source Aggregate.
type Component struct {
	// Source draws the group's per-replication paths.
	Source PathSource
	// Weight scales the group's contribution; 0 means 1.
	Weight float64
	// Count replicates the group; 0 means 1. Each replica draws from its
	// own split rng, exactly as Superposition replicates its base.
	Count int
}

// Aggregate superposes heterogeneous PathSource components slot-wise. For
// each component in order and each replica, it draws one path from
// r.Split(), so a single weight-1 component is Superposition{Base, N}
// draw for draw, and ports from hand-rolled superposition reproduce their
// outputs bit for bit. Aggregate implements PathSourceInto itself and so
// drops into every estimator.
type Aggregate struct {
	Components []Component
}

// ArrivalPath draws and sums the component paths.
func (a Aggregate) ArrivalPath(r *rng.Source, k int) []float64 {
	buf := make([]float64, k)
	a.ArrivalPathInto(r, buf)
	return buf
}

// ArrivalPathInto sums the component paths into buf, routing sources that
// support buffer reuse through a pooled scratch slice (zero path
// allocations per replication in steady state, however many sources the
// aggregate carries).
func (a Aggregate) ArrivalPathInto(r *rng.Source, buf []float64) {
	if len(a.Components) == 0 {
		panic("queue: Aggregate with no components")
	}
	for j := range buf {
		buf[j] = 0
	}
	k := len(buf)
	scratch := scratchSlice(k)
	defer releaseScratch(scratch)
	for _, c := range a.Components {
		w := c.Weight
		if w == 0 {
			w = 1
		}
		count := c.Count
		if count == 0 {
			count = 1
		}
		into, reuse := c.Source.(PathSourceInto)
		for rep := 0; rep < count; rep++ {
			var path []float64
			if reuse {
				into.ArrivalPathInto(r.Split(), *scratch)
				path = *scratch
			} else {
				path = c.Source.ArrivalPath(r.Split(), k)
			}
			if w == 1 {
				for j, v := range path {
					buf[j] += v
				}
			} else {
				for j, v := range path {
					buf[j] += w * v
				}
			}
		}
	}
}

// scratchPool recycles per-replication path buffers across goroutines.
var scratchPool sync.Pool

func scratchSlice(k int) *[]float64 {
	if p, ok := scratchPool.Get().(*[]float64); ok && cap(*p) >= k {
		*p = (*p)[:k]
		return p
	}
	s := make([]float64, k)
	return &s
}

func releaseScratch(p *[]float64) { scratchPool.Put(p) }
