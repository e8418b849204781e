// Ablation benchmarks for design choices DESIGN.md calls out, beyond the
// paper-claim experiments in bench_test.go:
//
//   - BenchmarkAblationReplaceVsDeleteInsert: the map's Put-replace (one
//     freeze pair, one fresh leaf) vs emulating replacement with
//     Delete+Insert on the set (two full update cycles).
//   - BenchmarkAblationScanFuncVsSlice: the allocation-free streaming
//     scan vs the materializing scan.
//   - BenchmarkAblationSnapshotVsScan: reading through a long-lived
//     snapshot vs fresh phase-opening scans.
//   - BenchmarkAblationPrevChainDepth: cost of version reads as prev
//     chains grow (scan of an old phase after N later phases of churn).
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func BenchmarkAblationReplaceVsDeleteInsert(b *testing.B) {
	const keys = 1 << 14
	b.Run("map-put-replace", func(b *testing.B) {
		m := core.NewMap[int64]()
		rng := workload.NewRNG(1)
		for i := int64(0); i < keys; i++ {
			m.Put(i, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Put(rng.Intn(keys), int64(i))
		}
	})
	b.Run("set-delete-insert", func(b *testing.B) {
		t := core.New()
		rng := workload.NewRNG(1)
		for i := int64(0); i < keys; i++ {
			t.Insert(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := rng.Intn(keys)
			t.Delete(k)
			t.Insert(k)
		}
	})
}

func BenchmarkAblationScanFuncVsSlice(b *testing.B) {
	t := core.New()
	rng := workload.NewRNG(2)
	for i := 0; i < 1<<15; i++ {
		t.Insert(rng.Intn(1 << 16))
	}
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := rng.Intn(1<<16 - 1024)
			n := 0
			t.RangeScanFunc(a, a+1023, func(int64) bool { n++; return true })
		}
	})
	b.Run("materializing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := rng.Intn(1<<16 - 1024)
			_ = t.RangeScan(a, a+1023)
		}
	})
}

func BenchmarkAblationSnapshotVsScan(b *testing.B) {
	t := core.New()
	for i := int64(0); i < 1<<14; i++ {
		t.Insert(i)
	}
	b.Run("fresh-scan-per-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = t.RangeCount(0, 1<<14-1)
		}
	})
	b.Run("reuse-snapshot", func(b *testing.B) {
		snap := t.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			snap.Range(0, 1<<14-1, func(int64) bool { n++; return true })
		}
	})
}

func BenchmarkAblationPrevChainDepth(b *testing.B) {
	// A key that is replaced in every later phase grows a prev chain;
	// reading an old phase pays one hop per later version of that leaf's
	// position. This quantifies the cost of deep history reads.
	for _, churn := range []int{0, 8, 64} {
		b.Run(itoa(int64(churn))+"-later-phases", func(b *testing.B) {
			t := core.New()
			for i := int64(0); i < 1024; i++ {
				t.Insert(i)
			}
			snap := t.Snapshot()
			for c := 0; c < churn; c++ {
				// Each round: delete and re-insert every 16th key, then
				// close the phase so the next round stacks new versions.
				for i := int64(0); i < 1024; i += 16 {
					t.Delete(i)
					t.Insert(i)
				}
				t.RangeCount(0, 0) // advance the phase
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				snap.Range(0, 1023, func(int64) bool { n++; return true })
				if n != 1024 {
					b.Fatalf("old version corrupted: %d keys", n)
				}
			}
		})
	}
}
