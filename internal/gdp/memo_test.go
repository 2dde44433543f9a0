package gdp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/bytecode"
	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/machine"
	"mcpart/internal/mclang"
	"mcpart/internal/obs"
	"mcpart/internal/opt"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
)

// prepBundled compiles a bundled benchmark the way the evaluation pipeline
// does (unrolled by 4, optimized, points-to analyzed) and profiles it on
// the bytecode VM.
func prepBundled(t *testing.T, b bench.Benchmark) (*ir.Module, *profile.Profile) {
	t.Helper()
	mod, err := mclang.CompileUnrolled(b.Source, b.Name, 4)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	opt.Optimize(mod)
	pointsto.Analyze(mod)
	prog, err := bytecode.Compile(mod)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	vm := bytecode.NewVM(prog, interp.Options{})
	if _, err := vm.RunMain(); err != nil {
		t.Fatalf("%s: profile run: %v", b.Name, err)
	}
	return mod, vm.Profile()
}

// TestPartitionDataOnMemoMatchesFresh pins the exactness of the
// data-partition memo: one memo per program, filled and hit across every
// machine of a preset × latency matrix (two-, four- and eight-cluster,
// uniform and topology-aware, equal and unequal memory shares), returns
// results deeply equal to a fresh call on each machine, relabelled ones
// included. The memo calls run with a different worker count, which the
// key leaves out.
func TestPartitionDataOnMemoMatchesFresh(t *testing.T) {
	presets := []string{"paper2", "hetero2", "mesh4", "ring4", "numa4", "mesh8", "ring8"}
	benches := bench.All()
	if testing.Short() {
		benches = benches[:3]
	}
	var hits, relabelled int64
	for _, b := range benches {
		mod, prof := prepBundled(t, b)
		var memo DataPartitions
		reg := obs.NewRegistry()
		for _, name := range presets {
			for _, lat := range []int{1, 5, 10} {
				cfg, err := machine.Preset(name, lat)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := PartitionDataOn(mod, prof, cfg, Options{}, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", b.Name, cfg.Name, err)
				}
				got, err := PartitionDataOn(mod, prof, cfg, Options{Obs: obs.New(reg, nil, nil)}, &memo)
				if err != nil {
					t.Fatalf("%s %s memo: %v", b.Name, cfg.Name, err)
				}
				if !reflect.DeepEqual(fresh, got) {
					t.Errorf("%s %s: memo result %+v, fresh %+v", b.Name, cfg.Name, got, fresh)
				}
				e, hit, _ := memo.entries.Do(dataKey(cfg.NumClusters(), Options{MemFractions: cfg.MemFractions()}), func() (*DataEntry, error) {
					return nil, errors.New("not memoized")
				})
				if !hit {
					t.Fatalf("%s %s: no memo entry after the call", b.Name, cfg.Name)
				}
				if !reflect.DeepEqual([]int(got.DataMap), e.Part) {
					relabelled++
				}
			}
		}
		snap := reg.Snapshot()
		if n := snap.Value("gdp_partitions"); n != int64(3*len(presets)) {
			t.Errorf("%s: gdp_partitions = %d, want one per call (%d)", b.Name, n, 3*len(presets))
		}
		hits += snap.Value("gdp_data_hits")
	}
	// Per program the 21 calls span 4 keys: 2, 4 and 8 clusters with equal
	// shares, and 4 with NUMA4's shares. Every other call is a hit.
	if want := int64(len(benches) * (3*len(presets) - 4)); hits != want {
		t.Errorf("gdp_data_hits = %d, want %d", hits, want)
	}
	if relabelled == 0 {
		t.Error("no call relabelled its partition; the topology path went untested")
	}
}

// TestDataKeyCoversKnobs: every input that shapes the graph partitioning
// changes the memo key, and the knobs that cannot change the result do
// not.
func TestDataKeyCoversKnobs(t *testing.T) {
	base := Options{MemFractions: []float64{0.5, 0.5}}
	seen := map[string]string{string(dataKey(2, base)): "base"}
	for name, o := range map[string]Options{
		"k=4":             {MemFractions: []float64{0.25, 0.25, 0.25, 0.25}},
		"nil fractions":   {},
		"fractions":       {MemFractions: []float64{0.75, 0.25}},
		"MemTol":          {MemFractions: base.MemFractions, MemTol: 0.2},
		"BalanceOps":      {MemFractions: base.MemFractions, BalanceOps: true},
		"NoMerge":         {MemFractions: base.MemFractions, NoMerge: true},
		"NoSinkWeighting": {MemFractions: base.MemFractions, NoSinkWeighting: true},
		"SlackMerge":      {MemFractions: base.MemFractions, SlackMerge: true},
	} {
		k := len(o.MemFractions)
		if k == 0 {
			k = 2
		}
		key := string(dataKey(k, o))
		if prev, dup := seen[key]; dup {
			t.Errorf("%s shares its key with %s", name, prev)
		}
		seen[key] = name
	}
	same := base
	same.Obs = obs.New(obs.NewRegistry(), nil, nil)
	same.MemTol = 0.10 // the default, spelled out
	if !bytes.Equal(dataKey(2, same), dataKey(2, base)) {
		t.Error("Obs or an explicit default MemTol changed the key")
	}
}

// mapTier is an in-memory DataTier.
type mapTier map[string]*DataEntry

func (m mapTier) Get(key []byte, k int) (*DataEntry, bool) {
	e, ok := m[string(key)]
	return e, ok && len(e.PairW) == k*k
}

func (m mapTier) Put(key []byte, e *DataEntry) { m[string(key)] = e }

// TestDataTierServesPartitions pins the second level under the memo: a
// memo over a filled tier (a restarted process over its artifact store)
// serves every machine's partition from the tier — no bisection — and
// still relabels each one for its topology, exactly as a fresh call does.
func TestDataTierServesPartitions(t *testing.T) {
	presets := []string{"paper2", "mesh4", "numa4", "ring8"}
	for _, b := range bench.All()[:3] {
		mod, prof := prepBundled(t, b)
		tier := mapTier{}
		for pass, misses := range []int64{4, 0} { // fill, then serve
			var memo DataPartitions
			memo.SetTier(tier)
			reg := obs.NewRegistry()
			for _, name := range presets {
				cfg, err := machine.Preset(name, 5)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := PartitionDataOn(mod, prof, cfg, Options{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := PartitionDataOn(mod, prof, cfg, Options{Obs: obs.New(reg, nil, nil)}, &memo)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fresh, got) {
					t.Errorf("%s %s pass %d: tiered result %+v, fresh %+v", b.Name, name, pass, got, fresh)
				}
			}
			if len(tier) != 4 {
				t.Errorf("%s pass %d: tier holds %d entries, want one per key (4)", b.Name, pass, len(tier))
			}
			if n := reg.Snapshot().Value("gdp_data_hits"); n != 4-misses {
				t.Errorf("%s pass %d: gdp_data_hits = %d, want %d", b.Name, pass, n, 4-misses)
			}
			if pass == 1 && reg.Snapshot().Value("fm_bisections") != 0 {
				t.Errorf("%s: a memo over a filled tier bisected", b.Name)
			}
		}
	}
}
