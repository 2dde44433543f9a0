package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// presetsUnderTest materializes every named preset at one latency.
func presetsUnderTest(t *testing.T, lat int) []*Config {
	t.Helper()
	out := make([]*Config, 0, len(PresetNames()))
	for _, name := range PresetNames() {
		cfg, err := Preset(name, lat)
		if err != nil {
			t.Fatalf("Preset(%q, %d): %v", name, lat, err)
		}
		out = append(out, cfg)
	}
	return out
}

func TestTopologyPresetsValidate(t *testing.T) {
	wantClusters := map[string]int{
		"paper2": 2, "four": 4, "eight": 8, "hetero2": 2,
		"ring4": 4, "ring8": 8, "mesh4": 4, "mesh8": 8, "numa4": 4,
	}
	for _, lat := range []int{1, 5, 10} {
		for i, cfg := range presetsUnderTest(t, lat) {
			name := PresetNames()[i]
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s lat %d: %v", name, lat, err)
			}
			if cfg.NumClusters() != wantClusters[name] {
				t.Errorf("%s: %d clusters, want %d", name, cfg.NumClusters(), wantClusters[name])
			}
			// The matrix spelling of the same machine must validate too.
			if err := AsMatrix(cfg).Validate(); err != nil {
				t.Errorf("AsMatrix(%s): %v", name, err)
			}
		}
	}
	if _, err := Preset("torus5", 5); err == nil {
		t.Error("accepted unknown preset name")
	}
	if cfg, err := Preset("", 5); err != nil || cfg.NumClusters() != 2 {
		t.Errorf("empty preset should default to paper2: %v", err)
	}
}

func TestMeshMoveLat(t *testing.T) {
	// Mesh4 is the 2x2 grid  0 1   Mesh8 the 2x4 grid  0 1 2 3
	//                        2 3                       4 5 6 7
	m4 := Mesh4(5)
	for _, c := range []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 5}, {0, 2, 5}, {0, 3, 10}, {1, 2, 10}, {1, 3, 5}, {2, 3, 5},
	} {
		if got := m4.MoveLat(c.a, c.b); got != c.want {
			t.Errorf("Mesh4.MoveLat(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	m8 := Mesh8(1)
	for _, c := range []struct{ a, b, want int }{
		{0, 3, 3}, {0, 7, 4}, {0, 4, 1}, {3, 4, 4}, {1, 6, 2}, {5, 6, 1},
	} {
		if got := m8.MoveLat(c.a, c.b); got != c.want {
			t.Errorf("Mesh8.MoveLat(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if m8.MinMoveLat() != 1 {
		t.Errorf("Mesh8 min hop = %d, want 1", m8.MinMoveLat())
	}
}

func TestNUMA4Preset(t *testing.T) {
	cfg := NUMA4(5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Intra-node cheap, inter-node 4x.
	for _, c := range []struct{ a, b, want int }{
		{0, 1, 5}, {2, 3, 5}, {0, 2, 20}, {0, 3, 20}, {1, 2, 20}, {1, 3, 20},
	} {
		if got := cfg.MoveLat(c.a, c.b); got != c.want {
			t.Errorf("NUMA4.MoveLat(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	fr := cfg.MemFractions()
	if fr == nil {
		t.Fatal("NUMA4 should declare memory capacities")
	}
	if fr[0] != 0.375 || fr[1] != 0.375 || fr[2] != 0.125 || fr[3] != 0.125 {
		t.Errorf("NUMA4 memory fractions = %v, want [0.375 0.375 0.125 0.125]", fr)
	}
	if cfg.SymmetricClusters() {
		t.Error("NUMA4 must not report symmetric clusters")
	}
}

// TestMoveLatMetricAxioms pins that every built-in topology induces a
// metric: zero diagonal, symmetry, and the triangle inequality (the rhop
// cost model and the gdp remapper both assume routing through an
// intermediate cluster never beats the direct pair cost).
func TestMoveLatMetricAxioms(t *testing.T) {
	for _, lat := range []int{1, 5, 10} {
		for i, cfg := range presetsUnderTest(t, lat) {
			name := PresetNames()[i]
			for _, m := range []*Config{cfg, AsMatrix(cfg)} {
				n := m.NumClusters()
				for a := 0; a < n; a++ {
					if m.MoveLat(a, a) != 0 {
						t.Errorf("%s: MoveLat(%d,%d) = %d, want 0", m.Name, a, a, m.MoveLat(a, a))
					}
					for b := 0; b < n; b++ {
						if m.MoveLat(a, b) != m.MoveLat(b, a) {
							t.Errorf("%s: MoveLat(%d,%d)=%d != MoveLat(%d,%d)=%d",
								m.Name, a, b, m.MoveLat(a, b), b, a, m.MoveLat(b, a))
						}
						if a != b && m.MoveLat(a, b) < 1 {
							t.Errorf("%s: MoveLat(%d,%d) = %d < 1", m.Name, a, b, m.MoveLat(a, b))
						}
						for v := 0; v < n; v++ {
							if m.MoveLat(a, b) > m.MoveLat(a, v)+m.MoveLat(v, b) {
								t.Errorf("%s: triangle violated: d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
									m.Name, a, b, m.MoveLat(a, b), a, v, v, b,
									m.MoveLat(a, v)+m.MoveLat(v, b))
							}
						}
					}
				}
				// The dense table must agree with the switch entry point.
				tab := m.LatencyTable()
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						if tab[a][b] != m.MoveLat(a, b) {
							t.Errorf("%s: LatencyTable[%d][%d]=%d != MoveLat=%d",
								m.Name, a, b, tab[a][b], m.MoveLat(a, b))
						}
					}
				}
				if min := m.MinMoveLat(); n > 1 && min != lat {
					t.Errorf("%s: MinMoveLat = %d, want base latency %d (name %q)", m.Name, min, lat, name)
				}
			}
		}
	}
}

// TestAsMatrixSameCosts pins the conformance-suite vehicle: re-expressing
// any topology as its explicit matrix preserves every pairwise cost and
// survives validation — only the spelling (and hence the code path inside
// MoveLat) differs.
func TestAsMatrixSameCosts(t *testing.T) {
	for _, cfg := range presetsUnderTest(t, 5) {
		m := AsMatrix(cfg)
		if m.Topology != TopologyMatrix {
			t.Errorf("AsMatrix(%s) topology = %s", cfg.Name, m.Topology)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("AsMatrix(%s): %v", cfg.Name, err)
		}
		n := cfg.NumClusters()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if cfg.MoveLat(a, b) != m.MoveLat(a, b) {
					t.Errorf("%s vs matrix: MoveLat(%d,%d) %d != %d",
						cfg.Name, a, b, cfg.MoveLat(a, b), m.MoveLat(a, b))
				}
			}
		}
		if cfg.SymmetricClusters() != m.SymmetricClusters() {
			t.Errorf("%s: SymmetricClusters differs between spellings", cfg.Name)
		}
	}
}

// TestCacheKeyMatrixInjectivity pins that distinct interconnects never
// share a memoization key — including machines that differ only in one
// latency-matrix entry — and that the pre-topology bus/ring encodings are
// unchanged so persistent stores written before meshes existed stay warm.
func TestCacheKeyMatrixInjectivity(t *testing.T) {
	base := Paper2Cluster(5)
	uniform, err := WithLatencyMatrix(base, [][]int{{0, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	tweaked, err := WithLatencyMatrix(base, [][]int{{0, 6}, {6, 0}})
	if err != nil {
		t.Fatal(err)
	}
	distinct := []*Config{base, uniform, tweaked, AsMatrix(RingFour(5))}
	for _, cfg := range presetsUnderTest(t, 5) {
		distinct = append(distinct, cfg)
	}
	// Drop duplicates by name (paper2 appears twice on purpose above only
	// via base, which Preset also returns — identical configs are allowed
	// and required to collide, so exclude the repeat).
	seen := map[string]string{}
	for _, cfg := range distinct[1:] {
		k := cfg.CacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s collide on cache key %q", cfg.Name, prev, k)
		}
		seen[k] = cfg.Name
	}
	// Identical machines must collide regardless of display name.
	renamed := *uniform
	renamed.Name = "other"
	if renamed.CacheKey() != uniform.CacheKey() {
		t.Error("Name must not affect the cache key")
	}
	// Back-compat: bus and ring keys carry no topology-era suffixes.
	for _, cfg := range []*Config{Paper2Cluster(5), RingFour(5)} {
		k := cfg.CacheKey()
		if strings.Contains(k, ";g") || strings.Contains(k, ";M") {
			t.Errorf("%s cache key %q grew a mesh/matrix suffix; warm stores would go cold", cfg.Name, k)
		}
	}
	// The mesh shape must be part of the key: same clusters, different
	// grids, different distances.
	wide := Mesh8(5)
	tall := Mesh8(5)
	tall.MeshCols = 2
	if wide.CacheKey() == tall.CacheKey() {
		t.Error("2x4 and 4x2 meshes collide on cache key")
	}
}

// TestSymmetricClustersMatrix pins the predicate on explicit matrices:
// only all-pairs-uniform matrices license the complement-symmetry pruning.
// A ring expressed as a matrix is permutation-symmetric (every cluster
// sees the same distance multiset) but NOT transposition-symmetric, so it
// must report false.
func TestSymmetricClustersMatrix(t *testing.T) {
	if !AsMatrix(Paper2Cluster(5)).SymmetricClusters() {
		t.Error("uniform 2-cluster matrix should be symmetric")
	}
	if !AsMatrix(FourCluster(5)).SymmetricClusters() {
		t.Error("uniform 4-cluster matrix should be symmetric")
	}
	if AsMatrix(RingFour(5)).SymmetricClusters() {
		t.Error("ring-as-matrix is not swap-invariant and must not be symmetric")
	}
	if AsMatrix(NUMA4(5)).SymmetricClusters() {
		t.Error("NUMA4-as-matrix must not be symmetric")
	}
}

// TestValidateRejectsTopologyConfigs is the table-driven rejection suite
// for the typed validation errors.
func TestValidateRejectsTopologyConfigs(t *testing.T) {
	one := func() Cluster { return paperCluster() }
	cases := []struct {
		name string
		cfg  *Config
		want error
	}{
		{
			name: "ring with one cluster",
			cfg: &Config{Name: "r1", Clusters: []Cluster{one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyRing},
			want: ErrRingSize,
		},
		{
			name: "mesh with zero columns",
			cfg: &Config{Name: "m0", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMesh},
			want: ErrMeshShape,
		},
		{
			name: "mesh with more columns than clusters",
			cfg: &Config{Name: "m9", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMesh, MeshCols: 3},
			want: ErrMeshShape,
		},
		{
			name: "bandwidth beyond issuable moves",
			cfg: &Config{Name: "bw", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 5},
			want: ErrBandwidth,
		},
		{
			name: "matrix topology without a matrix",
			cfg: &Config{Name: "nil", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMatrix},
			want: ErrTopologyMatrix,
		},
		{
			name: "matrix on bus topology",
			cfg: &Config{Name: "bus+m", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1,
				LatencyMatrix: [][]int{{0, 5}, {5, 0}}},
			want: ErrTopologyMatrix,
		},
		{
			name: "ragged matrix",
			cfg: &Config{Name: "rag", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMatrix,
				LatencyMatrix: [][]int{{0, 5}, {5}}},
			want: ErrLatencyMatrix,
		},
		{
			name: "wrong row count",
			cfg: &Config{Name: "rows", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMatrix,
				LatencyMatrix: [][]int{{0, 5}}},
			want: ErrLatencyMatrix,
		},
		{
			name: "nonzero diagonal",
			cfg: &Config{Name: "diag", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMatrix,
				LatencyMatrix: [][]int{{1, 5}, {5, 0}}},
			want: ErrLatencyMatrix,
		},
		{
			name: "asymmetric matrix",
			cfg: &Config{Name: "asym", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMatrix,
				LatencyMatrix: [][]int{{0, 5}, {7, 0}}},
			want: ErrLatencyMatrix,
		},
		{
			name: "zero off-diagonal",
			cfg: &Config{Name: "free", Clusters: []Cluster{one(), one()},
				MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMatrix,
				LatencyMatrix: [][]int{{0, 0}, {0, 0}}},
			want: ErrLatencyMatrix,
		},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.want)
		}
	}
	// The bandwidth cap only binds when intercluster moves exist at all.
	fat := &Config{Name: "solo", Clusters: []Cluster{one()}, MoveLatency: 1, MoveBandwidth: 64}
	if err := fat.Validate(); err != nil {
		t.Errorf("single-cluster machine with wide bandwidth: %v", err)
	}
	// Ragged rows must be rejected before the symmetry probe indexes them
	// (a panic here would mean the transposed lookup ran first).
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("ragged matrix validation panicked: %v", r)
			}
		}()
		long := &Config{Name: "long", Clusters: []Cluster{one(), one()},
			MoveLatency: 5, MoveBandwidth: 1, Topology: TopologyMatrix,
			LatencyMatrix: [][]int{{0, 5, 9, 9}, {5, 0}}}
		if long.Validate() == nil {
			t.Error("accepted ragged matrix")
		}
	}()
}

// TestValidateClusterCount pins the cluster-count bound: powers of two up
// to MaxClusters validate, every other count fails with ErrClusterCount
// (the k-way min-cut bisects recursively, and the partitioners' memo keys
// hold a cluster in one byte).
func TestValidateClusterCount(t *testing.T) {
	machineOf := func(n int) *Config {
		cfg := &Config{Name: fmt.Sprintf("n%d", n), Clusters: make([]Cluster, n), MoveLatency: 5, MoveBandwidth: 1}
		for i := range cfg.Clusters {
			cfg.Clusters[i] = paperCluster()
		}
		return cfg
	}
	for n := 1; n <= MaxClusters; n *= 2 {
		if err := machineOf(n).Validate(); err != nil {
			t.Errorf("%d clusters: %v", n, err)
		}
	}
	for _, n := range []int{3, 5, 6, 7, 12, 96, MaxClusters + 1, 2 * MaxClusters} {
		if err := machineOf(n).Validate(); !errors.Is(err, ErrClusterCount) {
			t.Errorf("%d clusters: error %v is not %v", n, err, ErrClusterCount)
		}
	}
}

func TestWithLatencyMatrixRejectsBad(t *testing.T) {
	base := Paper2Cluster(5)
	if _, err := WithLatencyMatrix(base, [][]int{{0, 5}, {7, 0}}); !errors.Is(err, ErrLatencyMatrix) {
		t.Errorf("asymmetric matrix: %v", err)
	}
	if _, err := WithLatencyMatrix(base, nil); !errors.Is(err, ErrTopologyMatrix) {
		t.Errorf("nil matrix: %v", err)
	}
	m, err := WithLatencyMatrix(base, [][]int{{0, 9}, {9, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.MoveLat(0, 1) != 9 {
		t.Errorf("MoveLat = %d, want 9", m.MoveLat(0, 1))
	}
	if base.Topology != TopologyBus || base.LatencyMatrix != nil {
		t.Error("WithLatencyMatrix mutated its input")
	}
}

// TestPresetNamesResolve keeps the documented vocabulary and the resolver
// in lockstep.
func TestPresetNamesResolve(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name, 5)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
			continue
		}
		if !strings.Contains(cfg.Name, "lat5") {
			t.Errorf("Preset(%q) name %q does not carry the latency", name, cfg.Name)
		}
	}
	// Latency must flow into the matrix presets too, not just the scalar.
	lo, hi := NUMA4(1), NUMA4(10)
	if lo.MoveLat(0, 2) != 4 || hi.MoveLat(0, 2) != 40 {
		t.Errorf("NUMA4 inter-node latency does not scale: %d / %d",
			lo.MoveLat(0, 2), hi.MoveLat(0, 2))
	}
}
