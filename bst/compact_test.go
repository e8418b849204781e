package bst_test

import (
	"testing"
	"time"

	"repro/bst"
	"repro/internal/workload"
)

// TestTreeCompactPublicAPI: the public Compact knob bounds version
// memory and reports progress through Stats.
func TestTreeCompactPublicAPI(t *testing.T) {
	tr := bst.New()
	rng := workload.NewRNG(3)
	for i := 0; i < 20_000; i++ {
		k := rng.Intn(512)
		if rng.Intn(2) == 0 {
			tr.Insert(k)
		} else {
			tr.Delete(k)
		}
	}
	want := tr.Keys()
	cs := tr.Compact()
	if cs.PrunedLinks == 0 {
		t.Fatalf("Compact on a churned tree pruned nothing: %+v", cs)
	}
	if cs.LiveNodes > 4*tr.Len()+16 {
		t.Fatalf("post-Compact live nodes = %d for %d keys", cs.LiveNodes, tr.Len())
	}
	got := tr.Keys()
	if len(got) != len(want) {
		t.Fatalf("Compact changed contents: %d vs %d keys", len(got), len(want))
	}
	st := tr.Stats()
	if st.Compactions != 1 || st.PrunedLinks != cs.PrunedLinks {
		t.Fatalf("stats gauges: %+v", st)
	}
}

// TestSnapshotReleaseSemantics: a released snapshot no longer pins
// version memory; an unreleased one keeps its view through Compact.
func TestSnapshotReleaseSemantics(t *testing.T) {
	tr := bst.New()
	for k := int64(0); k < 100; k++ {
		tr.Insert(k)
	}
	snap := tr.Snapshot()
	for k := int64(0); k < 100; k += 2 {
		tr.Delete(k)
	}
	tr.Compact()
	if n := snap.Len(); n != 100 {
		t.Fatalf("pinned snapshot sees %d keys, want 100", n)
	}
	snap.Release()
	cs := tr.Compact()
	if cs.PrunedLinks == 0 {
		t.Fatal("Compact after Release pruned nothing")
	}
	if n := tr.Len(); n != 50 {
		t.Fatalf("live tree has %d keys, want 50", n)
	}
}

// TestAutoCompactBoundsMemory: StartAutoCompact keeps the version graph
// bounded under churn without any explicit Compact calls.
func TestAutoCompactBoundsMemory(t *testing.T) {
	for name, mk := range maps() {
		m := mk()
		stop := m.StartAutoCompact(5 * time.Millisecond)
		rng := workload.NewRNG(17)
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			k := rng.Intn(512)
			if rng.Intn(2) == 0 {
				m.Insert(k)
			} else {
				m.Delete(k)
			}
		}
		stop()
		stop() // idempotent
		if st := m.Stats(); st.Compactions == 0 || st.PrunedLinks == 0 {
			t.Fatalf("%s: auto-compaction never pruned: %+v", name, st)
		}
	}
}
