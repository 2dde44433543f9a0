package rhop

import (
	"reflect"
	"testing"

	"mcpart/internal/machine"
)

// TestFuncPartitionerMatchesPartitionFunc pins the sweep partitioner's
// exactness contract: for every lock signature a data-mapping sweep can
// produce, Partition must return exactly what one-shot PartitionFunc
// returns — the region-result cache and the dirty-block evaluator change
// speed, never outcomes. Lock signatures are swept exhaustively over the
// functions' memory ops mapped by a 2-cluster object mask, interleaved so
// cache hits and misses both occur. One Prepared per function serves every
// machine and option set, so its min-cut memo is shared across them.
func TestFuncPartitionerMatchesPartitionFunc(t *testing.T) {
	for _, src := range []string{wideSrc, multiFuncSrc} {
		mod, prof := compileAndProfile(t, src)
		preps := map[string]*Prepared{}
		for _, f := range mod.Funcs {
			preps[f.Name] = Prepare(f, prof, nil)
		}
		for _, mcfg := range []*machine.Config{
			machine.Paper2Cluster(5), machine.FourCluster(5),
		} {
			for _, opts := range []Options{
				{},
				{PairRefine: true},
			} {
				for _, f := range mod.Funcs {
					objs := TouchedObjects(f)
					if len(objs) > 6 {
						t.Fatalf("%s touches %d objects; test sweep too large", f.Name, len(objs))
					}
					// Home cluster per touched object, driven by the mask.
					lockSets := make([]Locks, 0, 1<<len(objs))
					for m := 0; m < 1<<len(objs); m++ {
						home := map[int]int{}
						for i, o := range objs {
							home[o] = m >> i & 1
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
					fp := preps[f.Name].NewPartitioner(mcfg, opts)
					// Two passes: the second is served largely from cache
					// and must still match.
					for pass := 0; pass < 2; pass++ {
						for m, locks := range lockSets {
							got, err := fp.Partition(locks)
							if err != nil {
								t.Fatal(err)
							}
							want, err := PartitionFunc(f, prof, mcfg, locks, opts)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %s mask %b pass %d: sweep partition differs:\nsweep   %v\noneshot %v",
									mcfg.Name, f.Name, m, pass, got, want)
							}
						}
					}
					if fp.Hits() == 0 && len(lockSets) > 1 {
						t.Errorf("%s %s: expected region-cache hits on repeat pass", mcfg.Name, f.Name)
					}
				}
			}
		}
	}
}
