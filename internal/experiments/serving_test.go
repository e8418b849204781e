package experiments

import "testing"

// TestWireTearCheck is the serving layer's acceptance gate: a pipelined
// wire client interleaving cross-shard moves with streaming SCANs must
// observe ZERO torn scans against the shared-clock (atomic) store —
// the shared clock's linearizability guarantee survives real TCP — while
// a store whose scan is stitched shard by shard tears deterministically
// under the same schedule (the backpressure forcing makes the §5.2
// anomaly a certainty, not a race; see WireTearCheck).
func TestWireTearCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("wire tear check skipped in -short mode")
	}
	const trials = 5
	torn, err := WireTearCheck(false, trials)
	if err != nil {
		t.Fatalf("atomic tear check: %v", err)
	}
	if torn != 0 {
		t.Fatalf("ATOMIC MODE TORE %d/%d WIRE SCANS: the shared-clock cut did not survive the serving layer", torn, trials)
	}

	torn, err = WireTearCheck(true, trials)
	if err != nil {
		t.Fatalf("stitched tear check: %v", err)
	}
	if torn == 0 {
		// Not a correctness failure of the store — but if the forcing
		// harness stops forcing, the atomic assertion above becomes
		// vacuous, so treat it as a test-infrastructure failure.
		t.Fatalf("stitched scan tore 0/%d scans: the backpressure forcing no longer wedges the server mid-scan", trials)
	}
	t.Logf("stitched scan tore %d/%d wire scans (expected: all)", torn, trials)
}
