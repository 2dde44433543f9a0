package mcpart

// BenchmarkStoreWarmRestart measures the persistent artifact store
// (internal/store, DESIGN.md §12) on the workload it exists for: the
// Figure 9 exhaustive sweep, run cold (empty cache directory) and then
// warm in a simulated fresh process. The warm timing is honest — it
// includes reopening the log, rebuilding the in-memory index from disk,
// and deserializing every served artifact, because the shared store
// handle is dropped between the two runs. Results of all three runs
// (no-cache reference, cold, warm) are checked deeply equal every
// iteration; the numbers are recorded in BENCH_store.json.
//
//	make bench-store

import (
	"context"
	"reflect"
	"testing"
	"time"

	"mcpart/internal/bench"
	"mcpart/internal/eval"
	"mcpart/internal/machine"
	"mcpart/internal/store"
)

func BenchmarkStoreWarmRestart(b *testing.B) {
	for _, name := range []string{"rawcaudio", "rawdaudio"} {
		b.Run(name, func(b *testing.B) {
			bm, err := bench.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := machine.Paper2Cluster(5)
			cref, err := eval.PrepareOpts(context.Background(), bm.Name, bm.Source, eval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ref, err := eval.Exhaustive(cref, cfg, eval.Options{Workers: 1}, 14)
			if err != nil {
				b.Fatal(err)
			}
			sweep := func(dir string) (*eval.ExhaustiveResult, error) {
				opts := eval.Options{Workers: 1, CacheDir: dir}
				c, err := eval.PrepareOpts(nil, bm.Name, bm.Source, opts)
				if err != nil {
					return nil, err
				}
				return eval.Exhaustive(c, cfg, opts, 14)
			}
			var cold, warm time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				t0 := time.Now()
				exCold, err := sweep(dir)
				if err != nil {
					b.Fatal(err)
				}
				if err := store.FlushShared(dir); err != nil {
					b.Fatal(err)
				}
				cold += time.Since(t0)
				// Simulated restart: close and forget the shared handle so
				// the warm sweep pays the real open + index rebuild.
				if err := store.DropShared(dir); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				exWarm, err := sweep(dir)
				if err != nil {
					b.Fatal(err)
				}
				warm += time.Since(t1)
				if !reflect.DeepEqual(ref, exCold) || !reflect.DeepEqual(ref, exWarm) {
					b.Fatal("cached exhaustive sweep differs from the no-cache reference")
				}
				if err := store.DropShared(dir); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cold.Seconds()/float64(b.N), "cold-s/op")
			b.ReportMetric(warm.Seconds()/float64(b.N), "warm-s/op")
			b.ReportMetric(cold.Seconds()/warm.Seconds(), "speedup-x")
		})
	}
}
