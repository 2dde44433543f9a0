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
// silently omitting paths that never fired (e.g. bb_* without -best).
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
// The points come from the Gray-code delta sweep (sweep.go), fanned across
// opts.Workers goroutines and stitched back in mask order, so the result
// is byte-identical to evaluating every mask serially through
// RunWithDataMap. Points[i].Mask == i always holds (Find exploits this).
// Under opts.Validate the independent validator checks every per-function
// cost-table entry once and every point's accounting against the table;
// opts.Inject is consulted once per table entry.
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
	// One lease spans the sweep and the scheme runs that mark its
	// choices, so they share the prepared state and its block caches.
	defer c.lease()()
	opts, sp, err := beginExhaustive(ctx, c, cfg, opts, maxObjects)
	if err != nil {
		return nil, err
	}
	points, err := sweepPoints(opts.ctx, c, cfg, opts, sp)
	if err != nil {
		return nil, err
	}
	return finishExhaustive(c, cfg, opts, sp, points)
}

// sweepSpace is the mapping space of one exhaustive search.
type sweepSpace struct {
	rad        *radix
	n          int     // data objects
	bytes      []int64 // per object
	totalBytes int64
	// canon: enumerate canonical masks (object 0 on cluster 0) and mirror
	// their complements.
	canon bool
}

// beginExhaustive attaches ctx and the search's observer scope to opts and
// sizes the mapping space under the caps.
func beginExhaustive(ctx context.Context, c *Compiled, cfg *machine.Config, opts Options, maxObjects int) (Options, *sweepSpace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.ctx = obs.With(ctx, opts.Observer)
	opts.Observer = opts.Observer.Named("exhaustive").Named(c.Name)
	k := cfg.NumClusters()
	registerSweepCounters(opts.Observer)
	n := len(c.Mod.Objects)
	if maxObjects <= 0 {
		maxObjects = defaults.DefaultMaxObjects
	}
	if n > maxObjects {
		return opts, nil, fmt.Errorf("eval: %s has %d objects; exhaustive search capped at %d", c.Name, n, maxObjects)
	}
	rad, err := newRadix(k, n)
	if err != nil {
		return opts, nil, err
	}
	if maxObjects < 63 && rad.pow[n] > uint64(1)<<uint(maxObjects) {
		return opts, nil, fmt.Errorf("eval: %s has %d mapping points on %d clusters; exhaustive search capped at %d points", c.Name, rad.pow[n], k, uint64(1)<<uint(maxObjects))
	}
	sp := &sweepSpace{rad: rad, n: n, bytes: make([]int64, n), canon: k == 2 && cfg.SymmetricClusters() && n > 0}
	for i := range sp.bytes {
		sp.bytes[i] = objectBytes(c, i)
		sp.totalBytes += sp.bytes[i]
	}
	return opts, sp, nil
}

// finishExhaustive completes the result from the full point slice: the
// worst and best cycles, each point's performance against the worst, and
// the masks GDP and Profile Max chose.
func finishExhaustive(c *Compiled, cfg *machine.Config, opts Options, sp *sweepSpace, points []MappingPoint) (*ExhaustiveResult, error) {
	res := &ExhaustiveResult{Points: points}
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
	err := parallel.Do(opts.ctx, opts.Workers,
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
	res.GDPMask = maskOf(gdpRes.DataMap, sp.rad)
	res.PMaxMask = maskOf(pmaxRes.DataMap, sp.rad)
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
