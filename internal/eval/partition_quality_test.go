package eval

import (
	"context"
	"testing"

	"mcpart/internal/bench"
	"mcpart/internal/gdp"
	"mcpart/internal/machine"
)

// legacyDataCuts records the (balance violation, cut weight) of the object
// partition the original per-node partitioner engine (formerly
// partition.Options.Legacy) produced for each benchmark and cluster count.
// That engine was deterministic, so these are exactly what it returned;
// it is deleted, and its results stay as the quality floor the current
// partitioner must meet.
var legacyDataCuts = []struct {
	bench     string
	k         int
	viol, cut int64
}{
	{"rawcaudio", 2, 0, 2708},
	{"rawcaudio", 4, 8166, 5411},
	{"rawdaudio", 2, 0, 8128},
	{"rawdaudio", 4, 8166, 9937},
	{"g721enc", 2, 0, 1060},
	{"g721enc", 4, 4896, 2639},
	{"g721dec", 2, 0, 4384},
	{"g721dec", 4, 4896, 5098},
	{"gsmencode", 2, 0, 25476},
	{"gsmencode", 4, 162, 52713},
	{"gsmdecode", 2, 0, 10529},
	{"gsmdecode", 4, 214, 24770},
	{"pegwitenc", 2, 601, 7268},
	{"pegwitenc", 4, 871, 8247},
	{"pegwitdec", 2, 537, 11972},
	{"pegwitdec", 4, 807, 13008},
	{"fir", 2, 0, 510},
	{"fir", 4, 2594, 811},
	{"fsed", 2, 0, 1302},
	{"fsed", 4, 7078, 4377},
	{"sobel", 2, 0, 707},
	{"sobel", 4, 7290, 41464},
	{"halftone", 2, 0, 514},
	{"halftone", 4, 7298, 3334},
	{"viterbi", 2, 6242, 1280},
	{"viterbi", 4, 11313, 11559},
	{"mesatx", 2, 0, 5617},
	{"mesatx", 4, 4460, 5903},
	{"rastaflt", 2, 15, 36866},
	{"rastaflt", 4, 152, 48847},
	{"cjpeg", 2, 0, 4360},
	{"cjpeg", 4, 6242, 5899},
	{"djpeg", 2, 0, 116},
	{"djpeg", 4, 6242, 2167},
	{"epic", 2, 0, 1796},
	{"epic", 4, 7326, 21253},
	{"unepic", 2, 0, 773},
	{"unepic", 4, 7326, 2056},
	{"mpeg2enc", 2, 738, 51527},
	{"mpeg2enc", 4, 4834, 53783},
	{"mpeg2dec", 2, 695, 2503},
	{"mpeg2dec", 4, 4272, 2503},
}

// TestFastPartitionNoWorseOnWorkloads is the partitioner's quality gate on
// the paper's own workloads (not just synthetic graphs): for every bundled
// benchmark and both machine shapes, the object partition is
// lexicographically no worse by (balance violation, cut weight) than the
// recorded legacyDataCuts. Violation is measured the same way the
// partitioner's constraint is stated: bytes placed on a cluster beyond
// total*fraction*(1+MemTol).
func TestFastPartitionNoWorseOnWorkloads(t *testing.T) {
	type workload struct {
		bench string
		k     int
	}
	floor := map[workload][2]int64{}
	for _, r := range legacyDataCuts {
		floor[workload{r.bench, r.k}] = [2]int64{r.viol, r.cut}
	}
	cfgs := []*machine.Config{machine.Paper2Cluster(5), machine.FourCluster(5)}
	checked := 0
	for _, b := range bench.All() {
		c, err := PrepareOpts(context.Background(), b.Name, b.Source, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			k := cfg.NumClusters()
			want, ok := floor[workload{b.Name, k}]
			if !ok {
				t.Fatalf("%s k=%d: no recorded floor", b.Name, k)
			}
			opts := gdp.Options{MemFractions: cfg.MemFractions()}
			dp, err := gdp.PartitionData(c.Mod, c.Prof, k, opts)
			if err != nil {
				t.Fatalf("%s k=%d: %v", b.Name, k, err)
			}
			bytes := memBytesPerCluster(c, dp.DataMap, k)
			var total int64
			for _, v := range bytes {
				total += v
			}
			frac := func(p int) float64 {
				if fr := cfg.MemFractions(); len(fr) == k {
					return fr[p]
				}
				return 1 / float64(k)
			}
			var viol int64
			for p := 0; p < k; p++ {
				limit := int64(float64(total) * frac(p) * 1.10) // default MemTol 0.10
				if over := bytes[p] - limit; over > 0 {
					viol += over
				}
			}
			lv, lc := want[0], want[1]
			if fc := dp.CutWeight; viol > lv || (viol == lv && fc > lc) {
				t.Errorf("%s k=%d: (viol=%d cut=%d) worse than legacy (viol=%d cut=%d)",
					b.Name, k, viol, fc, lv, lc)
			}
			checked++
		}
	}
	if checked != len(legacyDataCuts) {
		t.Errorf("checked %d workloads, %d recorded", checked, len(legacyDataCuts))
	}
}
