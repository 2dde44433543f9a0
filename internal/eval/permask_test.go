package eval

import (
	"context"
	"fmt"

	"mcpart/internal/gdp"
	"mcpart/internal/machine"
	"mcpart/internal/parallel"
)

// exhaustivePerMask runs Exhaustive on the per-mask engine, the delta
// sweep's differential oracle: every mask goes through the whole-module
// pipeline (RunWithDataMap, validated whole under opts.Validate) on its
// own, sharing nothing with its neighbours but the memo.
func exhaustivePerMask(c *Compiled, cfg *machine.Config, opts Options, maxObjects int) (*ExhaustiveResult, error) {
	opts, sp, err := beginExhaustive(context.Background(), c, cfg, opts, maxObjects)
	if err != nil {
		return nil, err
	}
	// The per-mask engine partitions whole modules mask after mask: share
	// the prepared structure across them.
	defer c.lease()()
	points, err := perMaskPoints(c, cfg, opts, sp)
	if err != nil {
		return nil, err
	}
	return finishExhaustive(c, cfg, opts, sp, points)
}

// perMaskPoints evaluates every mask through RunWithDataMap, fanned across
// opts.Workers. On symmetric machines only the canonical (even) half is
// evaluated and each point mirrored onto its odd complement: evalMask
// canonicalizes, so a mirrored value is exactly what evaluating the odd
// mask would have produced.
func perMaskPoints(c *Compiled, cfg *machine.Config, opts Options, sp *sweepSpace) ([]MappingPoint, error) {
	n, rad := sp.n, sp.rad
	full := uint64(1)<<uint(n) - 1
	evalMask := func(mask uint64) (MappingPoint, error) {
		span := opts.Observer.Span(fmt.Sprintf("mask%04x", mask))
		defer span.End()
		opts.Observer.Counter("eval_masks").Add(1)
		emask := mask
		if sp.canon && emask&1 == 1 {
			emask = ^emask & full // cluster-swap to the canonical representative
		}
		dm := make(gdp.DataMap, n)
		clusterBytes := make([]int64, rad.k)
		for j := 0; j < n; j++ {
			dm[j] = rad.digit(emask, j)
			clusterBytes[dm[j]] += sp.bytes[j]
		}
		mopts := opts
		mopts.Observer = span.Observer()
		r, err := RunWithDataMap(c, cfg, dm, mopts)
		if err != nil {
			return MappingPoint{}, &CellError{Bench: c.Name, Scheme: SchemeFixed, Mask: mask, HasMask: true, Err: err}
		}
		// The byte imbalance (max-min)/total is invariant under cluster
		// relabeling, so computing it from emask equals computing it from
		// mask.
		return MappingPoint{Mask: mask, Cycles: r.Cycles, Imbalance: imbalanceOf(clusterBytes, sp.totalBytes)}, nil
	}
	if !sp.canon {
		return parallel.MapStage(opts.ctx, "exhaustive", rad.count(n), opts.Workers,
			func(_ context.Context, i int) (MappingPoint, error) {
				return evalMask(uint64(i))
			})
	}
	evens, err := parallel.MapStage(opts.ctx, "exhaustive", 1<<uint(n-1), opts.Workers,
		func(_ context.Context, i int) (MappingPoint, error) {
			return evalMask(uint64(i) << 1)
		})
	if err != nil {
		return nil, err
	}
	points := make([]MappingPoint, 1<<uint(n))
	for _, p := range evens {
		points[p.Mask] = p
	}
	for m := uint64(1); m < uint64(len(points)); m += 2 {
		src := points[^m&full]
		points[m] = MappingPoint{Mask: m, Cycles: src.Cycles, Imbalance: src.Imbalance}
	}
	return points, nil
}
