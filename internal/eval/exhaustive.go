package eval

import (
	"context"
	"fmt"

	"mcpart/internal/defaults"
	"mcpart/internal/gdp"
	"mcpart/internal/machine"
	"mcpart/internal/obs"
	"mcpart/internal/parallel"
)

// registerSweepCounters pre-registers the sweep and branch-and-bound
// counters so a clean -metrics run reports explicit zeros instead of
// silently omitting paths that never fired (e.g. bb_* without -best, or
// sweep_* on a -validate sweep, which runs the per-mask engine).
func registerSweepCounters(o *obs.Observer) {
	o.Counter("sweep_masks_delta").Add(0)
	o.Counter("sweep_funcs_recomputed").Add(0)
	o.Counter("bb_nodes_visited").Add(0)
	o.Counter("bb_nodes_pruned").Add(0)
}

// MappingPoint is one point of the Figure 9 scatter: a complete data-object
// mapping, its achieved cycles, and its data-size balance.
type MappingPoint struct {
	// Mask encodes the mapping positionally in base k (the cluster count):
	// digit i gives the cluster of object i. On 2-cluster machines this is
	// the familiar bitmask; on k>2 machines read digits with repeated
	// division by k.
	Mask uint64
	// Cycles is the dynamic cycle count under this mapping.
	Cycles int64
	// Imbalance is (max cluster bytes - min cluster bytes) / total in
	// [0,1]; 0 = perfectly balanced (the paper shades imbalanced points
	// darker). On 2-cluster machines this equals |bytes0-bytes1| / total.
	Imbalance float64
	// PerfVsWorst is cycles(worst mapping) / cycles(this), >= 1.
	PerfVsWorst float64
}

// ExhaustiveResult is the full Figure 9 dataset for one benchmark.
type ExhaustiveResult struct {
	Points []MappingPoint
	// GDPMask / PMaxMask are the masks the two schemes chose, for marking
	// on the plot.
	GDPMask  uint64
	PMaxMask uint64
	// Worst and Best cycles over all mappings.
	Worst, Best int64
}

// Exhaustive enumerates every data-object mapping onto the machine's k
// clusters (k^objects of them), evaluates each through the locked second
// pass, and returns the scatter along with the mappings GDP and Profile
// Max picked. The mapping-point count must be at most 2^maxObjects (guard
// against blowup); at k=2 that is the familiar object-count cap.
//
// The masks are fanned across opts.Workers goroutines; every worker owns
// its own DataMap and (through RunWithDataMap) its own scheduler and
// partitioner scratch state, and the points are stitched back in mask
// order, so the result is byte-identical to the serial evaluation.
// Points[i].Mask == i always holds (Find exploits this).
//
// On cluster-symmetric 2-cluster machines (machine.Config.SymmetricClusters)
// a mask and its bitwise complement describe the same placement up to a
// cluster relabeling, so each mask is evaluated through its canonical
// representative — the member of the {mask, ^mask} pair with object 0 on
// cluster 0. Canonicalization makes cycles(mask) == cycles(^mask) hold
// exactly (the partitioner's lower-cluster tie-breaks would otherwise
// skew complements slightly) and lets the sweep evaluate only the 2^(n-1)
// canonical masks and mirror the rest. Asymmetric machines — and every
// machine with more than two clusters, where the relabeling orbit is the
// full k! group and mirroring is no longer a cheap complement — always
// sweep every mask uncanonicalized.
func Exhaustive(c *Compiled, cfg *machine.Config, opts Options, maxObjects int) (*ExhaustiveResult, error) {
	return ExhaustiveCtx(context.Background(), c, cfg, opts, maxObjects)
}

// ExhaustiveCtx is Exhaustive under a context: cancellation stops the mask
// sweep between items and propagates ctx's error.
func ExhaustiveCtx(ctx context.Context, c *Compiled, cfg *machine.Config, opts Options, maxObjects int) (*ExhaustiveResult, error) {
	return exhaustive(ctx, c, cfg, opts, maxObjects, false)
}

// exhaustive implements ExhaustiveCtx. The points come from the Gray-code
// delta sweep unless fault injection or per-point validation needs the
// full per-mask pipeline; perMask forces the per-mask engine, which the
// differential tests use as the sweep's oracle.
func exhaustive(ctx context.Context, c *Compiled, cfg *machine.Config, opts Options, maxObjects int, perMask bool) (*ExhaustiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = obs.With(ctx, opts.Observer)
	opts.ctx = ctx
	opts.Observer = opts.Observer.Named("exhaustive").Named(c.Name)
	k := cfg.NumClusters()
	registerSweepCounters(opts.Observer)
	n := len(c.Mod.Objects)
	if maxObjects <= 0 {
		maxObjects = defaults.DefaultMaxObjects
	}
	if n > maxObjects {
		return nil, fmt.Errorf("eval: %s has %d objects; exhaustive search capped at %d", c.Name, n, maxObjects)
	}
	rad, err := newRadix(k, n)
	if err != nil {
		return nil, err
	}
	if maxObjects < 63 && rad.pow[n] > uint64(1)<<uint(maxObjects) {
		return nil, fmt.Errorf("eval: %s has %d mapping points on %d clusters; exhaustive search capped at %d points", c.Name, rad.pow[n], k, uint64(1)<<uint(maxObjects))
	}
	pointCount := rad.count(n)
	var totalBytes int64
	bytes := make([]int64, n)
	for i := range bytes {
		bytes[i] = objectBytes(c, i)
		totalBytes += bytes[i]
	}
	canon := k == 2 && cfg.SymmetricClusters()
	full := uint64(1)<<uint(n) - 1
	evalMask := func(mask uint64) (MappingPoint, error) {
		sp := opts.Observer.Span(fmt.Sprintf("mask%04x", mask))
		defer sp.End()
		opts.Observer.Counter("eval_masks").Add(1)
		emask := mask
		if canon && emask&1 == 1 {
			emask = ^emask & full // cluster-swap to the canonical representative
		}
		dm := make(gdp.DataMap, n)
		clusterBytes := make([]int64, k)
		for j := 0; j < n; j++ {
			dm[j] = rad.digit(emask, j)
			clusterBytes[dm[j]] += bytes[j]
		}
		mopts := opts
		mopts.Observer = sp.Observer()
		r, err := RunWithDataMap(c, cfg, dm, mopts)
		if err != nil {
			return MappingPoint{}, &CellError{Bench: c.Name, Scheme: SchemeFixed, Mask: mask, HasMask: true, Err: err}
		}
		// The byte imbalance (max-min)/total is invariant under cluster
		// relabeling, so computing it from emask equals computing it from
		// mask.
		return MappingPoint{Mask: mask, Cycles: r.Cycles, Imbalance: imbalanceOf(clusterBytes, totalBytes)}, nil
	}

	res := &ExhaustiveResult{}
	delta := !perMask && opts.Inject == nil && !opts.Validate && n > 0
	if !delta {
		// The per-mask engine partitions whole modules mask after mask:
		// share the prepared structure across them.
		defer c.lease()()
	}
	if delta {
		// Gray-code delta sweep (see sweep.go): byte-identical points at a
		// fraction of the per-mask cost.
		points, err := sweepPoints(ctx, c, cfg, opts, rad, bytes, totalBytes, canon, n)
		if err != nil {
			return nil, err
		}
		res.Points = points
	} else if canon && n > 0 {
		// Evaluate only the canonical (even) half; mirror each point onto
		// its odd complement. Mirrored values are exactly what evaluating
		// the odd mask would have produced, since evalMask canonicalizes.
		evens, err := parallel.MapStage(ctx, "exhaustive", 1<<uint(n-1), opts.Workers,
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
		res.Points = points
	} else {
		points, err := parallel.MapStage(ctx, "exhaustive", pointCount, opts.Workers,
			func(_ context.Context, i int) (MappingPoint, error) {
				return evalMask(uint64(i))
			})
		if err != nil {
			return nil, err
		}
		res.Points = points
	}
	res.Worst, res.Best = res.Points[0].Cycles, res.Points[0].Cycles
	for _, p := range res.Points {
		if p.Cycles > res.Worst {
			res.Worst = p.Cycles
		}
		if p.Cycles < res.Best {
			res.Best = p.Cycles
		}
	}
	for i := range res.Points {
		res.Points[i].PerfVsWorst = float64(res.Worst) / float64(res.Points[i].Cycles)
	}
	// Mark the schemes' choices (independent of the scatter and of each
	// other, so they can share the pool too).
	var gdpRes, pmaxRes *Result
	err = parallel.Do(ctx, opts.Workers,
		func(context.Context) error {
			r, err := RunGDP(c, cfg, opts)
			if err != nil {
				err = &CellError{Bench: c.Name, Scheme: SchemeGDP, Err: err}
			}
			gdpRes = r
			return err
		},
		func(context.Context) error {
			r, err := RunProfileMax(c, cfg, opts)
			if err != nil {
				err = &CellError{Bench: c.Name, Scheme: SchemeProfileMax, Err: err}
			}
			pmaxRes = r
			return err
		})
	if err != nil {
		return nil, err
	}
	res.GDPMask = maskOf(gdpRes.DataMap, rad)
	res.PMaxMask = maskOf(pmaxRes.DataMap, rad)
	return res, nil
}

// maskOf packs a data map into its base-k positional mask.
func maskOf(dm gdp.DataMap, rad *radix) uint64 {
	var mask uint64
	for i, cl := range dm {
		mask += uint64(cl) * rad.pow[i]
	}
	return mask
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Find returns the point with the given mask, or nil. Exhaustive stores
// points in mask order (Points[i].Mask == i), so the lookup is O(1); a
// linear scan remains as a fallback for hand-assembled results that break
// the invariant.
func (r *ExhaustiveResult) Find(mask uint64) *MappingPoint {
	if mask < uint64(len(r.Points)) && r.Points[mask].Mask == mask {
		return &r.Points[mask]
	}
	for i := range r.Points {
		if r.Points[i].Mask == mask {
			return &r.Points[i]
		}
	}
	return nil
}
