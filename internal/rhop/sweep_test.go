package rhop

import (
	"reflect"
	"testing"

	"mcpart/internal/machine"
	"mcpart/internal/obs"
)

// TestFuncPartitionerMatchesPartitionFunc pins the partitioner's exactness
// contract: for every lock signature a data-mapping sweep can produce, a
// partitioner reused across the whole sweep must return exactly what a
// fresh partitioner on a fresh Prepared returns for that one call — the
// region-result memo, the dirty-block evaluator and the min-cut and split
// memos change speed, never outcomes. Lock signatures
// are swept exhaustively over the functions' memory ops: base 2 on two
// clusters, and base 4 above, with digit d homing an object on cluster
// d*k/4 so locks land on both sides of every bisection of the k-way
// recursion. Masks are interleaved so cache hits and misses both occur.
// One Prepared per function serves every machine and option set, so its
// memos are shared across them; the 2-cluster machine runs first and must
// leave the split memo empty, and every wider machine that runs a k-way
// split must hit it.
func TestFuncPartitionerMatchesPartitionFunc(t *testing.T) {
	for _, src := range []string{wideSrc, multiFuncSrc} {
		mod, prof := compileAndProfile(t, src)
		preps := map[string]*Prepared{}
		for _, f := range mod.Funcs {
			preps[f.Name] = Prepare(f, prof, nil)
		}
		for _, mcfg := range []*machine.Config{
			machine.Paper2Cluster(5), machine.FourCluster(5),
			machine.Mesh4(5), machine.EightCluster(5),
		} {
			k := mcfg.NumClusters()
			base := min(k, 4)
			reg := obs.NewRegistry()
			for _, opts := range []Options{
				{},
				{PairRefine: true},
			} {
				for _, f := range mod.Funcs {
					objs := TouchedObjects(f)
					if len(objs) > 3 {
						t.Fatalf("%s touches %d objects; test sweep too large", f.Name, len(objs))
					}
					masks := 1
					for range objs {
						masks *= base
					}
					// Home cluster per touched object, driven by the mask.
					lockSets := make([]Locks, 0, masks)
					for m := 0; m < masks; m++ {
						home := map[int]int{}
						digits := m
						for _, o := range objs {
							home[o] = digits % base * (k / base)
							digits /= base
						}
						locks := Locks{}
						for _, b := range f.Blocks {
							for _, op := range b.Ops {
								if op.Opcode.IsMem() && len(op.MayAccess) > 0 {
									locks[op.ID] = home[op.MayAccess[0]]
								}
							}
						}
						lockSets = append(lockSets, locks)
					}
					// The observer only counts; it is value-neutral, so the
					// fresh oracle runs without it.
					sweepOpts := opts
					sweepOpts.Obs = obs.New(reg, nil, nil)
					fp := preps[f.Name].NewPartitioner(mcfg, sweepOpts)
					// Two passes: the second is served largely from cache
					// and must still match.
					for pass := 0; pass < 2; pass++ {
						for m, locks := range lockSets {
							got, err := fp.Partition(locks)
							if err != nil {
								t.Fatal(err)
							}
							want, err := Prepare(f, prof, nil).NewPartitioner(mcfg, opts).Partition(locks)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %s mask %d pass %d: reused partitioner differs:\nreused %v\nfresh  %v",
									mcfg.Name, f.Name, m, pass, got, want)
							}
						}
					}
					if fp.hits == 0 && len(lockSets) > 1 {
						t.Errorf("%s %s: expected region-memo hits on repeat pass", mcfg.Name, f.Name)
					}
					if n := preps[f.Name].cuts.split.Len(); k == 2 && n != 0 {
						t.Errorf("%s %s: %d split-memo entries after a 2-cluster sweep, want 0", mcfg.Name, f.Name, n)
					}
				}
			}
			// Mesh4 shares FourCluster's cluster count and so its whole
			// min-cuts: it may run no k-way split at all.
			snap := reg.Snapshot()
			if k > 2 && snap.Value("rhop_kway_runs") > 0 && snap.Value("fm_split_hits") == 0 {
				t.Errorf("%s: no split-memo hits over a base-%d lock sweep", mcfg.Name, base)
			}
		}
	}
}

// TestGraphIDCoversInputs pins the split memo's graph identity: the region
// index, the edge-weighting flag and each external reference's presence
// must each change it, while a placed reference's cluster must not — that
// reaches the memo through the anchor's fixed part.
func TestGraphIDCoversInputs(t *testing.T) {
	pre := &regionPre{}
	asg := make([]int, 20)
	for i := range asg {
		asg[i] = -1
	}
	for i := 0; i < 10; i++ {
		pre.extRefs = append(pre.extRefs, int32(2*i))
		if i%3 == 0 {
			asg[2*i] = 1
		}
	}
	sc := &scratch{}
	id := func(ri int, opts Options) string { return string(sc.graphID(ri, pre, opts, asg)) }
	base := id(3, Options{})
	if id(3, Options{}) != base {
		t.Fatal("graphID is not deterministic")
	}
	if id(4, Options{}) == base {
		t.Error("region index not in the id")
	}
	if id(3, Options{UniformEdges: true}) == base {
		t.Error("UniformEdges not in the id")
	}
	for _, ref := range pre.extRefs {
		old := asg[ref]
		if old < 0 {
			asg[ref] = 0
		} else {
			asg[ref] = -1
		}
		if id(3, Options{}) == base {
			t.Errorf("presence of external ref %d not in the id", ref)
		}
		if old >= 0 {
			asg[ref] = old + 1
			if id(3, Options{}) != base {
				t.Errorf("cluster of placed ref %d changed the id", ref)
			}
		}
		asg[ref] = old
	}
}
