package eval

import (
	"sort"

	"mcpart/internal/gdp"
	"mcpart/internal/machine"
)

// Additional object-placement baselines from the literature the paper
// builds on (Terechko et al., CASES'03, studied round-robin and
// affinity-style placements of global values for clustered VLIWs). These
// are not part of the paper's Table 1 but make useful extra comparison
// points; both feed the same locked second pass as GDP.

// RunRoundRobin places objects on clusters round-robin in declaration
// order — the simplest balanced placement, completely blind to access
// patterns.
func RunRoundRobin(c *Compiled, cfg *machine.Config, opts Options) (*Result, error) {
	k := cfg.NumClusters()
	dm := make(gdp.DataMap, len(c.Mod.Objects))
	for i := range dm {
		dm[i] = i % k
	}
	res, err := RunWithDataMap(c, cfg, dm, opts)
	if err != nil {
		return nil, err
	}
	res.Scheme = "RoundRobin"
	return res, nil
}

// RunAffinity greedily clusters objects by access affinity: objects are
// taken in descending dynamic access order and placed on the cluster whose
// already-placed objects share the most accessing operations with them,
// subject to the same byte-balance threshold as Profile Max. Unlike GDP it
// never sees the computation graph, only object-object co-access counts.
func RunAffinity(c *Compiled, cfg *machine.Config, opts Options) (*Result, error) {
	k := cfg.NumClusters()
	n := len(c.Mod.Objects)
	// affinity[a][b] = dynamic accesses by functions that touch both.
	affinity := make([][]int64, n)
	for i := range affinity {
		affinity[i] = make([]int64, n)
	}
	for _, f := range c.Mod.Funcs {
		touched := map[int]int64{}
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				for objID, cnt := range c.Prof.OpObj[op] {
					touched[objID] += cnt
				}
			}
		}
		ids := make([]int, 0, len(touched))
		for id := range touched {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, a := range ids {
			for _, b := range ids {
				if a != b {
					affinity[a][b] += min64(touched[a], touched[b])
				}
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if c.Prof.ObjAccess[a] != c.Prof.ObjAccess[b] {
			return c.Prof.ObjAccess[a] > c.Prof.ObjAccess[b]
		}
		return a < b
	})
	var totalBytes int64
	for id := 0; id < n; id++ {
		totalBytes += objectBytes(c, id)
	}
	limit := int64(float64(totalBytes) / float64(k) * (1 + profileMaxTol))
	loaded := make([]int64, k)
	placed := make([]bool, n)
	dm := make(gdp.DataMap, n)
	for _, id := range order {
		best, bestScore := 0, int64(-1)
		for cl := 0; cl < k; cl++ {
			var score int64
			for other := 0; other < n; other++ {
				if placed[other] && dm[other] == cl {
					score += affinity[id][other]
				}
			}
			over := loaded[cl]+objectBytes(c, id) > limit
			if over {
				score -= 1 << 40 // strongly prefer clusters with room
			}
			if score > bestScore || (score == bestScore && loaded[cl] < loaded[best]) {
				best, bestScore = cl, score
			}
		}
		dm[id] = best
		placed[id] = true
		loaded[best] += objectBytes(c, id)
	}
	res, err := RunWithDataMap(c, cfg, dm, opts)
	if err != nil {
		return nil, err
	}
	res.Scheme = "Affinity"
	return res, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
