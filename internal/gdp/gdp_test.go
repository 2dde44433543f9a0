package gdp

import (
	"testing"

	"mcpart/internal/interp"
	"mcpart/internal/ir"
	"mcpart/internal/mclang"
	"mcpart/internal/pointsto"
	"mcpart/internal/profile"
)

func prep(t *testing.T, src string) (*ir.Module, *profile.Profile) {
	t.Helper()
	mod, err := mclang.Compile(src, "t")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	pointsto.Analyze(mod)
	in := interp.New(mod, interp.Options{})
	if _, err := in.RunMain(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return mod, in.Profile()
}

func objID(m *ir.Module, name string) int {
	for _, o := range m.Objects {
		if o.Name == name {
			return o.ID
		}
	}
	return -1
}

func groupOf(groups [][]int, objID int) int {
	for gi, g := range groups {
		for _, id := range g {
			if id == objID {
				return gi
			}
		}
	}
	return -1
}

const fig4Src = `
global int value1;
global int value2;
func main() int {
    int *x;
    int *foo;
    int s = 0;
    int i;
    x = malloc(64);
    for (i = 0; i < 50; i = i + 1) {
        value1 = value1 + i;
        value2 = value2 + 2 * i;
        if (value2 > 40) { foo = x; } else { foo = &value1; }
        s = s + foo[0];
    }
    return s;
}`

func TestAccessPatternMergingFigure4(t *testing.T) {
	// The multi-object load through foo must merge value1 with the heap
	// site; value2 stays separate.
	mod, _ := prep(t, fig4Src)
	groups := MergeObjects(mod)
	v1 := objID(mod, "value1")
	v2 := objID(mod, "value2")
	heap := objID(mod, "malloc@main:0")
	if groupOf(groups, v1) != groupOf(groups, heap) {
		t.Errorf("value1 and heap site not merged: %v", groups)
	}
	if groupOf(groups, v2) == groupOf(groups, v1) {
		t.Errorf("value2 wrongly merged with value1: %v", groups)
	}
}

func TestMergedObjectsShareCluster(t *testing.T) {
	mod, prof := prep(t, fig4Src)
	res, err := PartitionData(mod, prof, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := objID(mod, "value1")
	heap := objID(mod, "malloc@main:0")
	if res.DataMap[v1] != res.DataMap[heap] {
		t.Errorf("merged objects on different clusters: %v", res.DataMap)
	}
	if err := res.DataMap.Validate(mod, 2); err != nil {
		t.Error(err)
	}
}

const balancedSrc = `
global int a[100];
global int b[100];
global int c[100];
global int d[100];
func main() int {
    int i;
    int s = 0;
    for (i = 0; i < 100; i = i + 1) {
        a[i] = i;
        b[i] = 2 * i;
        c[i] = 3 * i;
        d[i] = 4 * i;
        s = s + a[i] + b[i] + c[i] + d[i];
    }
    return s;
}`

func TestDataBytesBalanced(t *testing.T) {
	mod, prof := prep(t, balancedSrc)
	res, err := PartitionData(mod, prof, 2, Options{MemTol: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	bytes := MemBytesPerCluster(mod, res.DataMap, prof, 2)
	total := bytes[0] + bytes[1]
	if total != 4*100*8 {
		t.Fatalf("total bytes = %d", total)
	}
	limit := int64(float64(total) / 2 * 1.25) // small slack over tolerance
	if bytes[0] > limit || bytes[1] > limit {
		t.Errorf("memory imbalanced: %v", bytes)
	}
}

func TestLocksFollowDataMap(t *testing.T) {
	mod, prof := prep(t, balancedSrc)
	res, err := PartitionData(mod, prof, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range mod.Funcs {
		for opID, c := range ComputeLocksFunc(f, res.DataMap, prof) {
			op := f.OpsByID()[opID]
			if !op.Opcode.IsMem() {
				t.Fatalf("lock on non-memory op %s", op)
			}
			// Single-object accesses must be locked exactly to their
			// object's home.
			if len(op.MayAccess) == 1 && c != res.DataMap[op.MayAccess[0]] {
				t.Errorf("op %s locked to %d, object home %d",
					op, c, res.DataMap[op.MayAccess[0]])
			}
			n++
		}
	}
	if n == 0 {
		t.Error("no locks produced")
	}
}

func TestNoMergeAblation(t *testing.T) {
	mod, prof := prep(t, fig4Src)
	res, err := PartitionData(mod, prof, 2, Options{NoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without merging every object is its own group.
	if len(res.Groups) != len(mod.Objects) {
		t.Errorf("NoMerge produced %d groups for %d objects",
			len(res.Groups), len(mod.Objects))
	}
	// Locks must still be well-defined (majority vote).
	for _, f := range mod.Funcs {
		for opID, c := range ComputeLocksFunc(f, res.DataMap, prof) {
			if c < 0 || c >= 2 {
				t.Errorf("%s op %d locked out of range: %d", f.Name, opID, c)
			}
		}
	}
}

func TestSlackMergeAblationRuns(t *testing.T) {
	mod, prof := prep(t, fig4Src)
	if _, err := PartitionData(mod, prof, 2, Options{SlackMerge: true}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleClusterDegenerate(t *testing.T) {
	mod, prof := prep(t, fig4Src)
	res, err := PartitionData(mod, prof, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.DataMap {
		if c != 0 {
			t.Fatalf("k=1 produced cluster %d", c)
		}
	}
}

func TestFourClusters(t *testing.T) {
	mod, prof := prep(t, balancedSrc)
	res, err := PartitionData(mod, prof, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.DataMap.Validate(mod, 4); err != nil {
		t.Error(err)
	}
	// Four equal arrays on four clusters should spread out.
	used := map[int]bool{}
	for _, c := range res.DataMap {
		used[c] = true
	}
	if len(used) < 3 {
		t.Errorf("4-way data partition used only %d clusters: %v", len(used), res.DataMap)
	}
}

func TestEveryObjectInExactlyOneGroup(t *testing.T) {
	mod, prof := prep(t, fig4Src)
	res, err := PartitionData(mod, prof, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, g := range res.Groups {
		for _, id := range g {
			seen[id]++
		}
	}
	if len(seen) != len(mod.Objects) {
		t.Fatalf("groups cover %d objects, want %d", len(seen), len(mod.Objects))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("object %d in %d groups", id, n)
		}
	}
}

func TestGroupBytesMatchProfiledSizes(t *testing.T) {
	mod, prof := prep(t, fig4Src)
	res, err := PartitionData(mod, prof, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, b := range res.GroupBytes {
		sum += b
	}
	var want int64
	for _, o := range mod.Objects {
		want += objBytes(o, prof)
	}
	if sum != want {
		t.Errorf("group bytes sum %d, want %d", sum, want)
	}
	// The heap site's 64 malloc'd bytes must be counted.
	heap := objID(mod, "malloc@main:0")
	gi := groupOf(res.Groups, heap)
	if res.GroupBytes[gi] < 64 {
		t.Errorf("heap group bytes = %d, want >= 64", res.GroupBytes[gi])
	}
}
