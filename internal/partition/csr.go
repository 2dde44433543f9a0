package partition

import (
	"fmt"
	"slices"
)

// CSR is a compressed-sparse-row view of an undirected weighted graph with
// vector node weights: node u's edges occupy Adj[XAdj[u]:XAdj[u+1]] (both
// directions of every undirected edge are present, exactly as in
// Graph.Adj), and its weight vector is W[u*Dims : (u+1)*Dims]. The
// partitioner builds one CSR per bisection and then coarsens, grows, and
// refines over flat int32/int64 arrays instead of chasing per-node []Edge
// slices.
type CSR struct {
	Dims  int     // weight dimensions per node
	XAdj  []int32 // len n+1; prefix offsets into Adj/AdjW
	Adj   []int32 // neighbor indices
	AdjW  []int64 // edge weights, parallel to Adj
	W     []int64 // node weights, flattened [u*Dims+d]
	Fixed []int32 // pre-assigned part per node, or -1
}

// Len returns the node count.
func (c *CSR) Len() int { return len(c.Fixed) }

// BuildCSR flattens g into CSR form. The result shares no memory with g.
func BuildCSR(g *Graph) *CSR {
	return buildCSRInto(new(CSR), g)
}

// buildCSRInto flattens g into c, reusing c's array capacity. Every slot
// of every table is overwritten, so a recycled shell needs no clearing.
func buildCSRInto(c *CSR, g *Graph) *CSR {
	n := g.Len()
	m := 0
	for u := range g.Adj {
		m += len(g.Adj[u])
	}
	c.Dims = g.NumW
	c.XAdj = growTo(c.XAdj, n+1)
	c.Adj = growTo(c.Adj, m)
	c.AdjW = growTo(c.AdjW, m)
	c.W = growTo(c.W, n*g.NumW)
	c.Fixed = growTo(c.Fixed, n)
	pos := int32(0)
	for u := 0; u < n; u++ {
		c.XAdj[u] = pos
		for _, e := range g.Adj[u] {
			c.Adj[pos] = int32(e.To)
			c.AdjW[pos] = e.W
			pos++
		}
		copy(c.W[u*g.NumW:(u+1)*g.NumW], g.W[u])
		c.Fixed[u] = int32(g.Fixed[u])
	}
	c.XAdj[n] = pos
	return c
}

// TotalW returns the per-dimension sum of node weights.
func (c *CSR) TotalW() []int64 {
	tot := make([]int64, c.Dims)
	for u := 0; u < c.Len(); u++ {
		for d := 0; d < c.Dims; d++ {
			tot[d] += c.W[u*c.Dims+d]
		}
	}
	return tot
}

// Validate checks structural consistency of the CSR arrays: offset
// monotonicity, array lengths, neighbor ranges, no self-edges, and
// undirected symmetry (every directed half has a twin of equal weight).
func (c *CSR) Validate() error {
	n := c.Len()
	if c.Dims < 0 {
		return fmt.Errorf("csr: negative weight dimension count %d", c.Dims)
	}
	if len(c.XAdj) != n+1 {
		return fmt.Errorf("csr: %d nodes but %d offsets, want %d", n, len(c.XAdj), n+1)
	}
	if len(c.W) != n*c.Dims {
		return fmt.Errorf("csr: %d node weights, want %d", len(c.W), n*c.Dims)
	}
	if len(c.AdjW) != len(c.Adj) {
		return fmt.Errorf("csr: %d edge weights for %d edges", len(c.AdjW), len(c.Adj))
	}
	if n == 0 {
		if len(c.Adj) != 0 {
			return fmt.Errorf("csr: edges on an empty graph")
		}
		return nil
	}
	if c.XAdj[0] != 0 {
		return fmt.Errorf("csr: offsets start at %d, want 0", c.XAdj[0])
	}
	if int(c.XAdj[n]) != len(c.Adj) {
		return fmt.Errorf("csr: offsets end at %d, want %d", c.XAdj[n], len(c.Adj))
	}
	// Check every offset before scanning any edge: the twin searches below
	// index Adj with other nodes' offsets, so a bad offset anywhere must be
	// rejected before it can send a scan out of bounds.
	for u := 0; u < n; u++ {
		if c.XAdj[u] > c.XAdj[u+1] {
			return fmt.Errorf("csr: offsets decrease at node %d (%d > %d)", u, c.XAdj[u], c.XAdj[u+1])
		}
		if c.Fixed[u] < -1 {
			return fmt.Errorf("csr: node %d fixed to %d, want >= -1", u, c.Fixed[u])
		}
	}
	for u := 0; u < n; u++ {
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			v := c.Adj[i]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("csr: node %d has edge to %d out of range", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("csr: node %d has a self-edge", u)
			}
			found := false
			for j := c.XAdj[v]; j < c.XAdj[v+1]; j++ {
				if int(c.Adj[j]) == u && c.AdjW[j] == c.AdjW[i] {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("csr: edge %d->%d (w=%d) has no symmetric twin", u, v, c.AdjW[i])
			}
		}
	}
	return nil
}

// coarsenCSR performs one round of heavy-edge matching over the CSR graph
// and returns the coarse graph, the fine-to-coarse map, and whether the
// graph actually shrank. Nodes are visited in descending incident-weight
// order and matched to their heaviest unmatched neighbor, subject to a
// merged-weight cap of total/3+1 per dimension and fixed-compatibility;
// the coarse graph is assembled in O(V+E) with a stamp table, and every
// table is a flat array. TestCoarsenCSRMatchesLegacy pins the matching
// to a plain per-node reference implementation.
// Coarsening conserves node weight, so the caller passes one total
// vector that serves every level instead of re-summing W per round.
func coarsenCSR(fs *fmScratch, c *CSR, total []int64) (*CSR, []int32, bool) {
	n := c.Len()
	maxW := growTo(fs.maxW, len(total))
	fs.maxW = maxW
	for d, t := range total {
		maxW[d] = t/3 + 1
	}
	match := growTo(fs.match, n)
	fs.match = match
	for i := range match {
		match[i] = -1
	}
	order := growTo(fs.order, n)
	fs.order = order
	incident := growTo(fs.incident, n)
	fs.incident = incident
	var maxInc int64
	for u := 0; u < n; u++ {
		order[u] = int32(u)
		var inc int64
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			inc += c.AdjW[i]
		}
		incident[u] = inc
		if inc > maxInc {
			maxInc = inc
		}
	}
	// Sort the visit order by (incident weight desc, index asc). When the
	// pair packs into a uint64 — node index below 2^20 and incident spread
	// below 2^43, true for every realistic input — a specialized sort over
	// packed keys avoids the per-comparison closure calls; otherwise fall
	// back to the generic comparator.
	if n < 1<<20 && maxInc < 1<<43 {
		keys := growTo(fs.sortKeys, n)
		fs.sortKeys = keys
		for u := 0; u < n; u++ {
			keys[u] = uint64(maxInc-incident[u])<<20 | uint64(u)
		}
		slices.Sort(keys)
		for i, k := range keys {
			order[i] = int32(k & (1<<20 - 1))
		}
	} else {
		slices.SortFunc(order, func(a, b int32) int {
			if incident[a] != incident[b] {
				if incident[a] > incident[b] {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
	}
	matched := 0
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		best, bestW := int32(-1), int64(-1)
		uw := c.W[int(u)*c.Dims : int(u)*c.Dims+c.Dims]
		for i := c.XAdj[u]; i < c.XAdj[u+1]; i++ {
			v := c.Adj[i]
			if match[v] != -1 {
				continue
			}
			if c.Fixed[u] != -1 && c.Fixed[v] != -1 && c.Fixed[u] != c.Fixed[v] {
				continue // cannot merge nodes locked to different parts
			}
			ok := true
			for d := range maxW {
				if uw[d]+c.W[int(v)*c.Dims+d] > maxW[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if w := c.AdjW[i]; w > bestW || (w == bestW && v < best) {
				best, bestW = v, w
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
			matched += 2
		} else {
			match[u] = u
		}
	}
	if matched < n/10 {
		return nil, nil, false
	}
	// Number the coarse nodes in ascending fine order.
	cmap := fs.getCmap(n)
	for i := range cmap {
		cmap[i] = -1
	}
	cn := 0
	for u := 0; u < n; u++ {
		if cmap[u] != -1 {
			continue
		}
		cmap[u] = int32(cn)
		if int(match[u]) != u {
			cmap[match[u]] = int32(cn)
		}
		cn++
	}
	cg := fs.getCSR()
	cg.Dims = c.Dims
	cg.XAdj = growTo(cg.XAdj, cn+1)
	cg.W = growTo(cg.W, cn*c.Dims)
	clear(cg.W) // accumulated below; the other tables are fully overwritten
	cg.Fixed = growTo(cg.Fixed, cn)
	for i := range cg.Fixed {
		cg.Fixed[i] = -1
	}
	for u := 0; u < n; u++ {
		cu := int(cmap[u])
		for d := 0; d < c.Dims; d++ {
			cg.W[cu*c.Dims+d] += c.W[u*c.Dims+d]
		}
		if c.Fixed[u] != -1 {
			cg.Fixed[cu] = c.Fixed[u]
		}
	}
	// Assemble the merged coarse adjacency in one sweep: visit each coarse
	// node's (at most two) fine members and deduplicate parallel edges with
	// a stamped position table.
	cg.Adj = growTo(cg.Adj, len(c.Adj))[:0]
	cg.AdjW = growTo(cg.AdjW, len(c.Adj))[:0]
	mark := growTo(fs.mark, cn)
	fs.mark = mark
	pos := growTo(fs.pos, cn)
	fs.pos = pos
	for i := range mark {
		mark[i] = -1
	}
	adj, adjW := c.Adj, c.AdjW
	addEdges := func(cu int32, u int32) {
		lo, hi := c.XAdj[u], c.XAdj[u+1]
		as := adj[lo:hi]
		ws := adjW[lo:hi][:len(as)] // reslice so ws[i] shares as's bound check
		for i, a := range as {
			cv := cmap[a]
			if cv == cu {
				continue
			}
			if mark[cv] == cu {
				cg.AdjW[pos[cv]] += ws[i]
				continue
			}
			mark[cv] = cu
			pos[cv] = int32(len(cg.Adj))
			cg.Adj = append(cg.Adj, cv)
			cg.AdjW = append(cg.AdjW, ws[i])
		}
	}
	next := int32(0)
	for u := 0; u < n; u++ {
		cu := cmap[u]
		if cu != next {
			continue // not the representative (lower-numbered) member
		}
		cg.XAdj[cu] = int32(len(cg.Adj))
		addEdges(cu, int32(u))
		if m := match[u]; int(m) != u {
			addEdges(cu, m)
		}
		next++
	}
	cg.XAdj[cn] = int32(len(cg.Adj))
	return cg, cmap, true
}
