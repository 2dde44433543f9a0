// Package machine describes the multicluster VLIW targets the partitioners
// compile for: per-cluster function units and register files, operation
// latencies, and the intercluster communication network (fixed bandwidth,
// configurable move latency), matching the machine model of the paper's
// §4.1 (2-cluster VLIW, 2 integer / 1 float / 1 memory / 1 branch unit per
// cluster, Itanium-like latencies, 1 intercluster move per cycle with a
// latency of 1, 5, or 10 cycles).
package machine

import (
	"errors"
	"fmt"

	"mcpart/internal/ir"
)

// FUKind is a function-unit class.
type FUKind int

// Function-unit classes.
const (
	FUInt FUKind = iota
	FUFloat
	FUMem
	FUBranch
	NumFUKinds
)

func (k FUKind) String() string {
	switch k {
	case FUInt:
		return "I"
	case FUFloat:
		return "F"
	case FUMem:
		return "M"
	case FUBranch:
		return "B"
	}
	return "?"
}

// KindOf maps an opcode to the function-unit class that executes it.
// Intercluster moves (ir.OpMove) issue on the integer unit of the sending
// cluster and additionally occupy the intercluster bus.
func KindOf(op ir.Opcode) FUKind {
	switch {
	case op.IsFloat():
		return FUFloat
	case op.IsMem():
		return FUMem
	case op.IsBranch():
		return FUBranch
	default:
		return FUInt
	}
}

// Latency returns the cycles from issue of an op until its result is
// available. The values mirror Itanium-class latencies, as in the paper.
func Latency(op ir.Opcode) int {
	switch op {
	case ir.OpMul:
		return 3
	case ir.OpDiv, ir.OpRem:
		return 8
	case ir.OpLoad, ir.OpMalloc:
		return 2
	case ir.OpStore:
		return 1
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE,
		ir.OpIToF, ir.OpFToI, ir.OpFNeg:
		return 4
	case ir.OpFDiv:
		return 12
	default:
		return 1
	}
}

// Cluster describes one cluster's function units and local data memory.
type Cluster struct {
	Units [NumFUKinds]int
	// MemBytes is the cluster's scratchpad capacity in bytes; 0 means
	// "unspecified" (the data partitioner then targets equal shares).
	MemBytes int64
}

// Topology selects the intercluster network shape.
type Topology int

// Network topologies. The paper assumes a shared bus with uniform latency
// ("this assumption is not necessary", §2); TopologyRing models the
// nearest-neighbor interconnects of tiled machines like RAW, where a move
// between clusters costs MoveLatency per hop of ring distance.
// TopologyMesh is a 2-D grid (row-major, MeshCols columns) charging
// MoveLatency per Manhattan hop; TopologyMatrix reads the per-pair cost
// directly from an explicit LatencyMatrix, which can express any symmetric
// network — including NUMA-style machines no regular shape captures.
const (
	TopologyBus Topology = iota
	TopologyRing
	TopologyMesh
	TopologyMatrix
)

func (t Topology) String() string {
	switch t {
	case TopologyRing:
		return "ring"
	case TopologyMesh:
		return "mesh"
	case TopologyMatrix:
		return "matrix"
	}
	return "bus"
}

// Config is a complete machine description.
type Config struct {
	Name     string
	Clusters []Cluster
	// MoveLatency is the cycle count of one intercluster move (per hop
	// for TopologyRing).
	MoveLatency int
	// MoveBandwidth is the number of intercluster moves that may be in
	// flight per cycle across the shared network (a global cap even for
	// the ring, a documented simplification).
	MoveBandwidth int
	// Topology is the network shape; the zero value is the paper's bus.
	Topology Topology
	// MeshCols is the column count of the TopologyMesh grid (row-major
	// cluster layout; the last row may be partial). Ignored by the other
	// topologies.
	MeshCols int
	// LatencyMatrix is the explicit per-pair move cost for TopologyMatrix:
	// a square NumClusters x NumClusters table with zero diagonal, symmetric,
	// positive off-diagonal entries. Ignored by the other topologies (and
	// rejected by Validate if set on them, to catch misconfiguration).
	LatencyMatrix [][]int
}

// MoveLat returns the move latency from cluster a to cluster b: the
// uniform bus latency, hops x latency on a ring or mesh, or the explicit
// LatencyMatrix entry.
func (c *Config) MoveLat(a, b int) int {
	if a == b {
		return 0
	}
	switch c.Topology {
	case TopologyRing:
		n := len(c.Clusters)
		d := a - b
		if d < 0 {
			d = -d
		}
		if n-d < d {
			d = n - d
		}
		return c.MoveLatency * d
	case TopologyMesh:
		return c.MoveLatency * c.meshHops(a, b)
	case TopologyMatrix:
		return c.LatencyMatrix[a][b]
	}
	return c.MoveLatency
}

// meshHops returns the Manhattan distance between clusters a and b on the
// row-major MeshCols-wide grid.
func (c *Config) meshHops(a, b int) int {
	ra, ca := a/c.MeshCols, a%c.MeshCols
	rb, cb := b/c.MeshCols, b%c.MeshCols
	dr, dc := ra-rb, ca-cb
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// MinMoveLat returns the smallest nonzero intercluster move latency on the
// machine — the cost of the cheapest possible hop. On a single-cluster
// machine (no intercluster moves exist) it returns MoveLatency so callers
// using it as a per-move lower bound stay conservative.
func (c *Config) MinMoveLat() int {
	n := len(c.Clusters)
	if n < 2 {
		return c.MoveLatency
	}
	min := c.MoveLat(0, 1)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if l := c.MoveLat(a, b); l < min {
				min = l
			}
		}
	}
	return min
}

// MaxMoveLat returns the largest intercluster move latency on the machine
// (the network diameter in cycles); 0 on a single-cluster machine.
func (c *Config) MaxMoveLat() int {
	n := len(c.Clusters)
	max := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if l := c.MoveLat(a, b); l > max {
				max = l
			}
		}
	}
	return max
}

// LatencyTable materializes the all-pairs move-latency table. Consumers on
// hot paths that cannot afford the per-call topology switch in MoveLat can
// index this dense table instead; the Config itself holds no cached state
// (it is copied by value in WithMemCapacities and friends).
func (c *Config) LatencyTable() [][]int {
	n := len(c.Clusters)
	out := make([][]int, n)
	for a := 0; a < n; a++ {
		out[a] = make([]int, n)
		for b := 0; b < n; b++ {
			out[a][b] = c.MoveLat(a, b)
		}
	}
	return out
}

// NumClusters returns the cluster count.
func (c *Config) NumClusters() int { return len(c.Clusters) }

// Units returns the number of units of the given kind on cluster ci.
func (c *Config) Units(ci int, k FUKind) int { return c.Clusters[ci].Units[k] }

// TotalUnits returns the machine-wide unit count of kind k.
func (c *Config) TotalUnits(k FUKind) int {
	n := 0
	for _, cl := range c.Clusters {
		n += cl.Units[k]
	}
	return n
}

// MaxClusters bounds a machine's cluster count. The partitioners' memo keys
// store a cluster, or one past it, in a single byte, and the k-way min-cut
// splits by recursive bisection, so Validate accepts only powers of two up
// to this bound.
const MaxClusters = 128

// Typed validation failures. Validate wraps these with the offending
// machine's details, so callers can classify rejections with errors.Is.
var (
	// ErrRingSize: a ring needs at least two clusters to have any links.
	ErrRingSize = errors.New("ring topology needs at least 2 clusters")
	// ErrMeshShape: a mesh needs a column count between 1 and the cluster
	// count for the row-major grid layout to be well defined.
	ErrMeshShape = errors.New("mesh topology needs MeshCols in [1, clusters]")
	// ErrBandwidth: moves issue on the sending cluster's integer units, so
	// no schedule can ever have more concurrent moves than the machine has
	// integer units; a larger MoveBandwidth is physically meaningless.
	ErrBandwidth = errors.New("move bandwidth exceeds physically issuable moves")
	// ErrLatencyMatrix: the latency matrix must be square (NumClusters x
	// NumClusters), zero on the diagonal, symmetric, and positive off it.
	ErrLatencyMatrix = errors.New("invalid latency matrix")
	// ErrTopologyMatrix: a LatencyMatrix on a non-matrix topology (or a
	// matrix topology without one) is a misconfiguration, not a fallback.
	ErrTopologyMatrix = errors.New("latency matrix and topology disagree")
	// ErrClusterCount: the cluster count is not a power of two, or exceeds
	// MaxClusters.
	ErrClusterCount = fmt.Errorf("cluster count must be a power of two no larger than %d", MaxClusters)
)

// Validate checks the configuration is usable.
func (c *Config) Validate() error {
	if len(c.Clusters) < 1 {
		return fmt.Errorf("machine %q: needs at least one cluster", c.Name)
	}
	if n := len(c.Clusters); n > MaxClusters || n&(n-1) != 0 {
		return fmt.Errorf("machine %q: %d clusters: %w", c.Name, n, ErrClusterCount)
	}
	if c.MoveLatency < 1 {
		return fmt.Errorf("machine %q: move latency %d < 1", c.Name, c.MoveLatency)
	}
	if c.MoveBandwidth < 1 {
		return fmt.Errorf("machine %q: move bandwidth %d < 1", c.Name, c.MoveBandwidth)
	}
	for i, cl := range c.Clusters {
		for k := FUKind(0); k < NumFUKinds; k++ {
			if cl.Units[k] < 0 {
				return fmt.Errorf("machine %q: cluster %d has %d units of %s",
					c.Name, i, cl.Units[k], k)
			}
		}
		if cl.Units[FUMem] == 0 {
			return fmt.Errorf("machine %q: cluster %d has no memory unit", c.Name, i)
		}
	}
	if len(c.Clusters) > 1 && c.MoveBandwidth > c.TotalUnits(FUInt) {
		return fmt.Errorf("machine %q: bandwidth %d > %d integer units: %w",
			c.Name, c.MoveBandwidth, c.TotalUnits(FUInt), ErrBandwidth)
	}
	switch c.Topology {
	case TopologyRing:
		if len(c.Clusters) < 2 {
			return fmt.Errorf("machine %q: %d cluster(s): %w", c.Name, len(c.Clusters), ErrRingSize)
		}
	case TopologyMesh:
		if c.MeshCols < 1 || c.MeshCols > len(c.Clusters) {
			return fmt.Errorf("machine %q: MeshCols %d with %d clusters: %w",
				c.Name, c.MeshCols, len(c.Clusters), ErrMeshShape)
		}
	case TopologyMatrix:
		if err := c.validateMatrix(); err != nil {
			return err
		}
	}
	if c.Topology != TopologyMatrix && c.LatencyMatrix != nil {
		return fmt.Errorf("machine %q: LatencyMatrix set on %s topology: %w",
			c.Name, c.Topology, ErrTopologyMatrix)
	}
	return nil
}

// validateMatrix enforces the LatencyMatrix invariants that make it a
// metric the schedulers and search engines can trust: square, zero
// diagonal, symmetric, positive off-diagonal.
func (c *Config) validateMatrix() error {
	n := len(c.Clusters)
	if c.LatencyMatrix == nil {
		return fmt.Errorf("machine %q: matrix topology without a LatencyMatrix: %w",
			c.Name, ErrTopologyMatrix)
	}
	if len(c.LatencyMatrix) != n {
		return fmt.Errorf("machine %q: latency matrix has %d rows for %d clusters: %w",
			c.Name, len(c.LatencyMatrix), n, ErrLatencyMatrix)
	}
	for a, row := range c.LatencyMatrix {
		if len(row) != n {
			return fmt.Errorf("machine %q: latency matrix row %d has %d entries for %d clusters: %w",
				c.Name, a, len(row), n, ErrLatencyMatrix)
		}
	}
	for a, row := range c.LatencyMatrix {
		for b, l := range row {
			switch {
			case a == b && l != 0:
				return fmt.Errorf("machine %q: latency matrix diagonal [%d][%d] = %d, want 0: %w",
					c.Name, a, b, l, ErrLatencyMatrix)
			case a != b && l < 1:
				return fmt.Errorf("machine %q: latency matrix [%d][%d] = %d, want >= 1: %w",
					c.Name, a, b, l, ErrLatencyMatrix)
			case c.LatencyMatrix[b][a] != l:
				return fmt.Errorf("machine %q: latency matrix asymmetric: [%d][%d]=%d but [%d][%d]=%d: %w",
					c.Name, a, b, l, b, a, c.LatencyMatrix[b][a], ErrLatencyMatrix)
			}
		}
	}
	return nil
}

// SymmetricClusters reports whether every cluster is interchangeable:
// identical function-unit mixes and memory capacities, and an intercluster
// network that looks the same from every cluster (all ordered pairs of
// distinct clusters have equal move latency). On such machines relabeling
// the clusters by any permutation that preserves the network — in
// particular swapping the two clusters of a 2-cluster machine — yields an
// equivalent machine, which is what licenses the complement-symmetry
// canonicalization in eval.Exhaustive. Asymmetric presets (Heterogeneous2,
// WithMemCapacities with unequal shares) report false and keep full
// sweeps.
func (c *Config) SymmetricClusters() bool {
	if len(c.Clusters) < 2 {
		return true
	}
	for _, cl := range c.Clusters[1:] {
		if cl != c.Clusters[0] {
			return false
		}
	}
	lat := c.MoveLat(0, 1)
	for a := range c.Clusters {
		for b := range c.Clusters {
			if a != b && c.MoveLat(a, b) != lat {
				return false
			}
		}
	}
	return true
}

// CacheKey returns a canonical encoding of everything that affects
// partitioning and scheduling outcomes: topology (including the mesh shape
// and every latency-matrix entry), move latency and bandwidth, and each
// cluster's unit mix and memory capacity. Name is deliberately excluded —
// two differently-named but identical configs share memoized results (see
// internal/memo). Bus and ring configs keep their pre-topology encoding,
// so persistent store caches written before meshes existed stay warm.
func (c *Config) CacheKey() string {
	b := make([]byte, 0, 64)
	b = fmt.Appendf(b, "t%d;l%d;w%d", c.Topology, c.MoveLatency, c.MoveBandwidth)
	if c.Topology == TopologyMesh {
		b = fmt.Appendf(b, ";g%d", c.MeshCols)
	}
	if c.Topology == TopologyMatrix {
		for _, row := range c.LatencyMatrix {
			b = fmt.Appendf(b, ";M%v", row)
		}
	}
	for _, cl := range c.Clusters {
		b = fmt.Appendf(b, ";u%v,m%d", cl.Units, cl.MemBytes)
	}
	return string(b)
}

// paperCluster is the per-cluster resource mix from the paper's §4.1.
func paperCluster() Cluster {
	var cl Cluster
	cl.Units[FUInt] = 2
	cl.Units[FUFloat] = 1
	cl.Units[FUMem] = 1
	cl.Units[FUBranch] = 1
	return cl
}

// Paper2Cluster returns the paper's evaluation machine: two homogeneous
// clusters, each with 2 integer, 1 float, 1 memory and 1 branch unit, and
// an intercluster bus of 1 move/cycle with the given latency.
func Paper2Cluster(moveLatency int) *Config {
	return &Config{
		Name:          fmt.Sprintf("paper-2c-lat%d", moveLatency),
		Clusters:      []Cluster{paperCluster(), paperCluster()},
		MoveLatency:   moveLatency,
		MoveBandwidth: 1,
	}
}

// FourCluster returns a four-cluster scaling of the paper machine.
func FourCluster(moveLatency int) *Config {
	return &Config{
		Name:          fmt.Sprintf("4c-lat%d", moveLatency),
		Clusters:      []Cluster{paperCluster(), paperCluster(), paperCluster(), paperCluster()},
		MoveLatency:   moveLatency,
		MoveBandwidth: 1,
	}
}

// Heterogeneous2 returns a two-cluster machine where cluster 0 has twice
// the integer bandwidth of cluster 1 (the imbalance example from §2).
func Heterogeneous2(moveLatency int) *Config {
	big := paperCluster()
	big.Units[FUInt] = 4
	small := paperCluster()
	small.Units[FUInt] = 2
	return &Config{
		Name:          fmt.Sprintf("hetero-2c-lat%d", moveLatency),
		Clusters:      []Cluster{big, small},
		MoveLatency:   moveLatency,
		MoveBandwidth: 1,
	}
}

// RingFour returns a four-cluster machine whose clusters sit on a
// nearest-neighbor ring: adjacent clusters exchange values in moveLatency
// cycles, opposite clusters in twice that.
func RingFour(moveLatency int) *Config {
	cfg := FourCluster(moveLatency)
	cfg.Name = fmt.Sprintf("ring-4c-lat%d", moveLatency)
	cfg.Topology = TopologyRing
	return cfg
}

// EightCluster returns an eight-cluster scaling of the paper machine on
// the uniform bus.
func EightCluster(moveLatency int) *Config {
	cls := make([]Cluster, 8)
	for i := range cls {
		cls[i] = paperCluster()
	}
	return &Config{
		Name:          fmt.Sprintf("8c-lat%d", moveLatency),
		Clusters:      cls,
		MoveLatency:   moveLatency,
		MoveBandwidth: 1,
	}
}

// Ring8 returns an eight-cluster nearest-neighbor ring (diameter 4 hops).
func Ring8(moveLatency int) *Config {
	cfg := EightCluster(moveLatency)
	cfg.Name = fmt.Sprintf("ring-8c-lat%d", moveLatency)
	cfg.Topology = TopologyRing
	return cfg
}

// Mesh4 returns four paper clusters on a 2x2 mesh: adjacent clusters one
// hop apart, diagonal clusters two.
func Mesh4(moveLatency int) *Config {
	cfg := FourCluster(moveLatency)
	cfg.Name = fmt.Sprintf("mesh-2x2-lat%d", moveLatency)
	cfg.Topology = TopologyMesh
	cfg.MeshCols = 2
	return cfg
}

// Mesh8 returns eight paper clusters on a 2x4 mesh (diameter 4 hops —
// same as Ring8, but with a richer distance distribution).
func Mesh8(moveLatency int) *Config {
	cfg := EightCluster(moveLatency)
	cfg.Name = fmt.Sprintf("mesh-2x4-lat%d", moveLatency)
	cfg.Topology = TopologyMesh
	cfg.MeshCols = 4
	return cfg
}

// NUMA4 returns a near-data four-cluster machine: two NUMA nodes of two
// clusters each, moves inside a node cost moveLatency and across nodes
// 4x that, and node 0's clusters carry three times the scratchpad of
// node 1's — so the data partitioner is pulled toward the big memories
// while the latency matrix penalizes leaving them (the CODA-style regime
// where compute follows data).
func NUMA4(moveLatency int) *Config {
	cfg := FourCluster(moveLatency)
	cfg.Name = fmt.Sprintf("numa-4c-lat%d", moveLatency)
	cfg.Topology = TopologyMatrix
	far := 4 * moveLatency
	cfg.LatencyMatrix = [][]int{
		{0, moveLatency, far, far},
		{moveLatency, 0, far, far},
		{far, far, 0, moveLatency},
		{far, far, moveLatency, 0},
	}
	const unit = 64 << 10
	for i := range cfg.Clusters {
		if i < 2 {
			cfg.Clusters[i].MemBytes = 3 * unit
		} else {
			cfg.Clusters[i].MemBytes = unit
		}
	}
	return cfg
}

// WithLatencyMatrix returns a copy of cfg rewired as an explicit-matrix
// machine with the given per-pair latencies. The matrix must satisfy the
// Validate invariants (square, zero diagonal, symmetric, positive off the
// diagonal).
func WithLatencyMatrix(cfg *Config, matrix [][]int) (*Config, error) {
	out := *cfg
	out.Clusters = append([]Cluster(nil), cfg.Clusters...)
	out.Topology = TopologyMatrix
	out.MeshCols = 0
	out.LatencyMatrix = matrix
	if err := out.validateMatrix(); err != nil {
		return nil, err
	}
	return &out, nil
}

// AsMatrix returns a copy of cfg with its topology re-expressed as an
// explicit LatencyMatrix (the all-pairs table MoveLat already induces).
// The result is a semantically identical machine on a different code path
// — the conformance suite pins that every consumer produces byte-identical
// output for the two spellings.
func AsMatrix(cfg *Config) *Config {
	out := *cfg
	out.Clusters = append([]Cluster(nil), cfg.Clusters...)
	out.Name = cfg.Name + "-asmatrix"
	out.Topology = TopologyMatrix
	out.MeshCols = 0
	out.LatencyMatrix = cfg.LatencyTable()
	return &out
}

// Preset resolves a machine-preset name at the given move latency: the
// shared vocabulary of the gdpd API and the command-line tools.
//
//	paper2   2 clusters, uniform bus (the paper's machine)
//	four     4 clusters, uniform bus
//	eight    8 clusters, uniform bus
//	hetero2  2 clusters, cluster 0 with twice the integer units
//	ring4    4 clusters, nearest-neighbor ring
//	ring8    8 clusters, nearest-neighbor ring
//	mesh4    4 clusters, 2x2 mesh
//	mesh8    8 clusters, 2x4 mesh
//	numa4    4 clusters, two NUMA nodes, asymmetric memory + latencies
func Preset(name string, moveLatency int) (*Config, error) {
	switch name {
	case "", "paper2":
		return Paper2Cluster(moveLatency), nil
	case "four":
		return FourCluster(moveLatency), nil
	case "eight":
		return EightCluster(moveLatency), nil
	case "hetero2":
		return Heterogeneous2(moveLatency), nil
	case "ring4":
		return RingFour(moveLatency), nil
	case "ring8":
		return Ring8(moveLatency), nil
	case "mesh4":
		return Mesh4(moveLatency), nil
	case "mesh8":
		return Mesh8(moveLatency), nil
	case "numa4":
		return NUMA4(moveLatency), nil
	}
	return nil, fmt.Errorf("unknown machine preset %q (want paper2|four|eight|hetero2|ring4|ring8|mesh4|mesh8|numa4)", name)
}

// PresetNames lists the Preset vocabulary in documentation order.
func PresetNames() []string {
	return []string{"paper2", "four", "eight", "hetero2", "ring4", "ring8", "mesh4", "mesh8", "numa4"}
}

// MemFractions returns each cluster's share of the machine's total data
// memory, or nil when no capacities are specified. The data partitioner
// balances object bytes to these targets (the paper's §3.3.2 notes the
// balance "is parameterized in the case where the memory within one
// cluster is significantly larger than the other").
func (c *Config) MemFractions() []float64 {
	var total int64
	for _, cl := range c.Clusters {
		if cl.MemBytes <= 0 {
			return nil
		}
		total += cl.MemBytes
	}
	out := make([]float64, len(c.Clusters))
	for i, cl := range c.Clusters {
		out[i] = float64(cl.MemBytes) / float64(total)
	}
	return out
}

// WithMemCapacities returns a copy of cfg with per-cluster scratchpad
// capacities set (one value per cluster).
func WithMemCapacities(cfg *Config, bytes ...int64) (*Config, error) {
	if len(bytes) != len(cfg.Clusters) {
		return nil, fmt.Errorf("machine %q: %d capacities for %d clusters",
			cfg.Name, len(bytes), len(cfg.Clusters))
	}
	out := *cfg
	out.Clusters = append([]Cluster(nil), cfg.Clusters...)
	for i, b := range bytes {
		if b <= 0 {
			return nil, fmt.Errorf("machine %q: capacity %d for cluster %d", cfg.Name, b, i)
		}
		out.Clusters[i].MemBytes = b
	}
	return &out, nil
}

// Unified1Cluster returns a single-cluster machine with the combined
// resources of n paper clusters. Note this is NOT the paper's "unified
// memory" baseline (that is the clustered machine with a shared memory,
// modeled by the eval package); it is a fully-centralized ablation point
// with no intercluster communication at all.
func Unified1Cluster(n int) *Config {
	cl := paperCluster()
	for k := FUKind(0); k < NumFUKinds; k++ {
		cl.Units[k] *= n
	}
	return &Config{
		Name:          fmt.Sprintf("unified-%dw", n),
		Clusters:      []Cluster{cl},
		MoveLatency:   1,
		MoveBandwidth: 1,
	}
}
