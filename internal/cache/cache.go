// Package cache implements the paper's stated future work (§5): evaluating
// data partitioning when the per-cluster memories are caches rather than
// perfect scratchpads. It provides a set-associative LRU cache simulator,
// memory-trace collection through the bytecode VM, and an experiment that
// compares a data partition's per-cluster miss behavior against a unified
// cache of the combined capacity.
//
// The model: each access goes to the cache of the accessed object's home
// cluster (the address space is partitioned, so there is no coherence);
// the unified baseline sends every access to one cache with the combined
// size and a port per cluster. Misses add a fixed penalty on top of the
// scheduled cycle count.
//
// Not to be confused with package memo, the compile-time memoization
// cache the evaluation engine uses to avoid recomputing partition and
// schedule results: this package simulates *hardware* caches of the
// machine being modeled; internal/memo caches *compiler* results.
package cache

import (
	"fmt"

	"mcpart/internal/bytecode"
	"mcpart/internal/gdp"
	"mcpart/internal/ir"
	"mcpart/internal/profile"
)

// Config describes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int // ways; 1 = direct-mapped
	// MissPenalty is the extra cycles per miss.
	MissPenalty int
}

// Validate checks the geometry is usable.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d", c.Assoc)
	}
	if c.SizeBytes < c.LineBytes*c.Assoc {
		return fmt.Errorf("cache: size %d too small for %d-way %d-byte lines",
			c.SizeBytes, c.Assoc, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Cache is a set-associative LRU cache.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	tags     []uint64 // sets * assoc entries
	age      []uint64 // LRU stamps
	valid    []bool
	clock    uint64

	Hits, Misses int64
}

// New builds an empty cache; geometry must Validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	n := sets * cfg.Assoc
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: lb,
		tags:     make([]uint64, n),
		age:      make([]uint64, n),
		valid:    make([]bool, n),
	}, nil
}

// Access simulates one access and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := addr >> c.lineBits
	set := int(line) & (c.sets - 1)
	base := set * c.cfg.Assoc
	victim, oldest := base, c.age[base]
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.age[i] = c.clock
			c.Hits++
			return true
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.valid[victim] = true
	c.tags[victim] = line
	c.age[victim] = c.clock
	c.Misses++
	return false
}

// Access is one traced memory reference.
type Access struct {
	Obj   int   // object ID
	Inst  int64 // allocation instance
	Off   int64 // byte offset within the instance
	Store bool
}

// Trace is a whole-program memory reference stream.
type Trace []Access

// Collect executes the module on the bytecode VM and records every load
// and store.
func Collect(m *ir.Module, maxSteps int64) (Trace, error) {
	prog, err := bytecode.Compile(m)
	if err != nil {
		return nil, err
	}
	var tr Trace
	vm := bytecode.NewVM(prog, profile.Options{
		MaxSteps: maxSteps,
		TraceMem: func(objID int, inst, off int64, isStore bool) {
			tr = append(tr, Access{Obj: objID, Inst: inst, Off: off, Store: isStore})
		},
	})
	if _, err := vm.RunMain(); err != nil {
		return nil, err
	}
	return tr, nil
}

// addr flattens an access into a synthetic address: each allocation
// instance occupies its own 4 GiB region, so distinct objects never alias.
func (a Access) addr() uint64 {
	return uint64(a.Inst)<<32 | (uint64(a.Off) & 0xffffffff)
}

// PartitionedResult is the outcome of replaying a trace against
// per-cluster caches under a data map.
type PartitionedResult struct {
	Accesses  []int64 // per cluster
	Misses    []int64 // per cluster
	ExtraCyc  int64   // Σ misses * penalty
	TotalMiss int64
}

// ReplayPartitioned replays the trace against one cache per cluster; each
// access goes to its object's home cluster.
func ReplayPartitioned(tr Trace, dm gdp.DataMap, k int, cfg Config) (*PartitionedResult, error) {
	caches := make([]*Cache, k)
	for i := range caches {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = c
	}
	res := &PartitionedResult{
		Accesses: make([]int64, k),
		Misses:   make([]int64, k),
	}
	for _, a := range tr {
		cl := dm[a.Obj]
		res.Accesses[cl]++
		if !caches[cl].Access(a.addr()) {
			res.Misses[cl]++
		}
	}
	for _, m := range res.Misses {
		res.TotalMiss += m
		res.ExtraCyc += m * int64(cfg.MissPenalty)
	}
	return res, nil
}

// ReplayUnified replays the trace against a single cache with k times the
// per-cluster capacity (the shared-memory baseline).
func ReplayUnified(tr Trace, k int, cfg Config) (*PartitionedResult, error) {
	big := cfg
	big.SizeBytes *= k
	c, err := New(big)
	if err != nil {
		return nil, err
	}
	res := &PartitionedResult{Accesses: make([]int64, 1), Misses: make([]int64, 1)}
	for _, a := range tr {
		res.Accesses[0]++
		if !c.Access(a.addr()) {
			res.Misses[0]++
		}
	}
	res.TotalMiss = res.Misses[0]
	res.ExtraCyc = res.TotalMiss * int64(cfg.MissPenalty)
	return res, nil
}

// MissRate is misses per access over the whole result.
func (r *PartitionedResult) MissRate() float64 {
	var acc int64
	for _, a := range r.Accesses {
		acc += a
	}
	if acc == 0 {
		return 0
	}
	return float64(r.TotalMiss) / float64(acc)
}
