package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/bst"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// SoakConfig describes one soak run: TCP serving + auto-rebalance +
// auto-compact + zipf-skewed mixed load + TTL working-set drift, all
// on at once, with continuous invariant checkers riding along. The
// zero value gets the documented defaults.
type SoakConfig struct {
	Duration time.Duration // measurement window; default 30s
	Conns    int           // workload connections; default 4
	KeyRange int64         // workload keys drawn from [0, KeyRange); default 1<<14
	Shards   int           // initial shard count; default 8
	Rate     float64       // open-loop total ops/s; 0 = closed loop (pipeline 8)
	ZipfSkew float64       // clustered key skew for the update mix; default 1.2
	Seed     uint64

	CompactEvery   time.Duration // StartAutoCompact interval; default 100ms
	RebalanceEvery time.Duration // AutoRebalance tick; default 25ms
	CheckEvery     time.Duration // stats/heap/oracle-scan cadence; default 250ms

	// PersistDir adds the durability axis: the served store is wrapped in
	// a persist.Map on this directory, checkpoints stream every
	// CheckpointEvery (default 1s) under full churn, and teardown runs a
	// recovery-and-verify pass — the recovered image must equal the final
	// live set exactly. The directory must be empty or absent.
	PersistDir      string
	CheckpointEvery time.Duration

	Logf func(format string, args ...any) // optional progress log
	Stop <-chan struct{}                  // optional early stop (e.g. SIGTERM)
}

// SoakReport is the outcome of one soak run. The run passes iff Ok().
type SoakReport struct {
	Elapsed time.Duration

	// Workload accounting (from the embedded loadgen run).
	Ops      uint64
	Offered  uint64 // open loop only
	Dropped  uint64 // open loop only
	ScanKeys uint64

	// Checker accounting.
	TearChecks   uint64 // scans over the mover's key pair
	TornScans    uint64 // scans that saw BOTH mover keys — must be 0
	MoverCycles  uint64
	OracleOps    uint64 // reply-verified point ops on the oracle region
	OracleScans  uint64 // exact set-vs-oracle scan comparisons
	StatsSamples uint64
	HeapSamples  uint64
	PeakHeapObjs uint64

	// Store outcome.
	Splits, Merges uint64
	Compactions    uint64
	FinalLen       int
	VersionGraph   int
	Drained        bool // server shut down cleanly within its deadline

	// Durability axis (PersistDir set).
	Checkpoints      uint64 // checkpoints streamed under churn
	WALAppends       uint64 // record groups logged
	RecoveredKeys    int    // keys in the post-drain recovery image
	RecoveryVerified bool   // recovered image == final live set

	// Flight-recorder audit: events emitted during this run, by type
	// name, and the recorder's one-line teardown summary. The phase
	// cross-checks (monotone cuts, rotate <= following checkpoint cut,
	// cuts bounded by the final clock) report into Violations.
	EventCounts  map[string]uint64
	EventSummary string

	Violations []string
}

// Ok reports whether every invariant held.
func (r *SoakReport) Ok() bool { return len(r.Violations) == 0 && r.TornScans == 0 }

// String renders a multi-line summary.
func (r *SoakReport) String() string {
	s := fmt.Sprintf(
		"soak %v: %d ops (%d scan keys), tear checks=%d torn=%d, mover cycles=%d, oracle ops=%d scans=%d,\n"+
			"  stats samples=%d, heap samples=%d (peak %d objs), splits=%d merges=%d compactions=%d,\n"+
			"  final len=%d version graph=%d drained=%v",
		r.Elapsed.Round(time.Millisecond), r.Ops, r.ScanKeys,
		r.TearChecks, r.TornScans, r.MoverCycles, r.OracleOps, r.OracleScans,
		r.StatsSamples, r.HeapSamples, r.PeakHeapObjs,
		r.Splits, r.Merges, r.Compactions, r.FinalLen, r.VersionGraph, r.Drained)
	if r.Offered > 0 {
		s += fmt.Sprintf("\n  open loop: offered=%d dropped=%d", r.Offered, r.Dropped)
	}
	if r.Checkpoints > 0 || r.WALAppends > 0 {
		s += fmt.Sprintf("\n  durability: checkpoints=%d wal appends=%d recovered=%d keys verified=%v",
			r.Checkpoints, r.WALAppends, r.RecoveredKeys, r.RecoveryVerified)
	}
	if r.EventSummary != "" {
		s += "\n  " + r.EventSummary
	}
	if len(r.Violations) > 0 {
		s += fmt.Sprintf("\n  VIOLATIONS (%d):", len(r.Violations))
		for _, v := range r.Violations {
			s += "\n    - " + v
		}
	}
	return s
}

// Soak runs the all-features-on configuration. It returns an error only
// for setup failures; invariant violations land in the report.
//
// Layout: workload keys live in [0, KeyRange); the store owns
// [-KeyRange, KeyRange-1] so the negative half is reserved for the
// checkers — a mover/scanner pair proving scan atomicity (the scanner
// must never see the mover's key in both its homes at once) and an
// oracle region whose exact contents are tracked client-side and
// compared against atomic scans. Connection 0 of the workload drives
// the ycsb-d drift/TTL stream; the rest run a clustered-zipf update
// mix that keeps the rebalancer busy.
func Soak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.KeyRange < 1024 {
		cfg.KeyRange = 1 << 14 // floor keeps the reserved checker regions disjoint
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.ZipfSkew == 0 {
		cfg.ZipfSkew = 1.2
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 100 * time.Millisecond
	}
	if cfg.RebalanceEvery <= 0 {
		cfg.RebalanceEvery = 25 * time.Millisecond
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 250 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	k := cfg.KeyRange

	// The soak IS the all-features run, so the flight recorder rides
	// along and its phase-stamped log is audited at teardown. Counts are
	// delta'd from here (the ring may wrap; cumulative counters do not).
	obsWasOn := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(obsWasOn)
	obsMark := obs.Default.Seq()
	obsCounts := obs.Default.Counts()

	rep := &SoakReport{}
	var vioMu sync.Mutex
	violate := func(format string, args ...any) {
		vioMu.Lock()
		defer vioMu.Unlock()
		if len(rep.Violations) < 64 { // cap: a broken run floods otherwise
			rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		}
	}

	m := bst.NewShardedRange(-k, k-1, cfg.Shards)
	var store server.Store = m
	var pm *persist.Map
	var stopCkpt func()
	if cfg.PersistDir != "" {
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = time.Second
		}
		var err error
		pm, _, err = persist.Open(persist.Config{Dir: cfg.PersistDir}, m)
		if err != nil {
			return nil, fmt.Errorf("soak: persist: %w", err)
		}
		store = pm
		stopCkpt = pm.StartAutoCheckpoint(cfg.CheckpointEvery)
	}
	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		return nil, fmt.Errorf("soak: server: %w", err)
	}
	addr := srv.Addr().String()
	stopCompact := m.StartAutoCompact(cfg.CompactEvery)
	stopRb := m.StartAutoRebalance(bst.RebalanceConfig{Interval: cfg.RebalanceEvery})
	logf("soak: serving %s, %d shards over [%d, %d], compact every %v, rebalance every %v",
		addr, cfg.Shards, -k, k-1, cfg.CompactEvery, cfg.RebalanceEvery)

	// --- checkers -----------------------------------------------------
	done := make(chan struct{})
	var checkers sync.WaitGroup
	spawn := func(name string, f func(c *wire.Client)) error {
		c, err := wire.Dial(addr)
		if err != nil {
			return fmt.Errorf("soak: %s: %w", name, err)
		}
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			defer c.Close()
			f(c)
		}()
		return nil
	}
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	// Mover: cycles one logical element between two homes far apart in
	// the key space (distinct shards, while the rebalancer permits):
	// delete(home); insert(away); delete(away); insert(home). Every
	// reply is checked — the keys are exclusively the mover's, so a
	// false reply is a lost or duplicated update.
	home, away := -k+16, int64(-16)
	moverStep := func(c *wire.Client, op func(int64) (bool, error), key int64, what string) bool {
		ok, err := op(key)
		if err != nil {
			if !stopped() {
				violate("mover %s(%d) transport error: %v", what, key, err)
			}
			return false
		}
		if !ok {
			violate("mover %s(%d) returned false: lost/duplicated update", what, key)
			return false
		}
		return true
	}
	setupErr := func() error {
		c, err := wire.Dial(addr)
		if err != nil {
			return fmt.Errorf("soak: mover: %w", err)
		}
		if ok, err := c.Insert(home); err != nil || !ok {
			c.Close()
			return fmt.Errorf("soak: mover: initial insert(%d): ok=%v err=%v", home, ok, err)
		}
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			defer c.Close()
			for !stopped() {
				if !moverStep(c, c.Delete, home, "delete") ||
					!moverStep(c, c.Insert, away, "insert") ||
					!moverStep(c, c.Delete, away, "delete") ||
					!moverStep(c, c.Insert, home, "insert") {
					return
				}
				rep.MoverCycles++ // single writer; published by checkers.Wait
			}
		}()
		return nil
	}()
	teardownEarly := func() {
		close(done)
		checkers.Wait()
		stopRb()
		stopCompact()
		if stopCkpt != nil {
			stopCkpt()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck
		if pm != nil {
			pm.Close() //nolint:errcheck
		}
	}
	if setupErr != nil {
		teardownEarly()
		return nil, setupErr
	}

	// Tear scanner: every scan of [home, away] is one atomic cut, so it
	// must see the mover's element in at most one of its homes. Seeing
	// both is a torn scan — the exact failure the shared phase clock
	// exists to prevent.
	if err := spawn("tear scanner", func(c *wire.Client) {
		for !stopped() {
			sawHome, sawAway := false, false
			_, err := c.Scan(home, away, func(key int64) bool {
				switch key {
				case home:
					sawHome = true
				case away:
					sawAway = true
				}
				return true
			})
			if err != nil {
				if !stopped() {
					violate("tear scanner transport error: %v", err)
				}
				return
			}
			rep.TearChecks++
			if sawHome && sawAway {
				rep.TornScans++
				violate("TORN SCAN: element observed at both %d and %d in one cut", home, away)
			}
		}
	}); err != nil {
		teardownEarly()
		return nil, err
	}

	// Oracle: owns [oLo, oHi] exclusively, mirrors every mutation in a
	// local set, checks every reply against local truth, and
	// periodically compares an atomic scan of the region against the
	// whole local set — catching lost updates, phantoms, and stale cuts.
	oLo := -k / 2 // strictly between home and away for any KeyRange >= 1024
	oHi := oLo + 255
	if err := spawn("oracle", func(c *wire.Client) {
		rng := workload.NewRNG(cfg.Seed ^ 0x0AC1E)
		local := make(map[int64]bool)
		next := time.Now().Add(cfg.CheckEvery)
		for !stopped() {
			key := oLo + rng.Intn(oHi-oLo+1)
			var ok bool
			var err error
			var want bool
			if rng.Intn(2) == 0 {
				want = !local[key] // insert succeeds iff absent
				ok, err = c.Insert(key)
				if err == nil && ok != want {
					violate("oracle insert(%d) = %v, want %v", key, ok, want)
				}
				if err == nil {
					local[key] = true
				}
			} else {
				want = local[key] // delete succeeds iff present
				ok, err = c.Delete(key)
				if err == nil && ok != want {
					violate("oracle delete(%d) = %v, want %v", key, ok, want)
				}
				if err == nil {
					delete(local, key)
				}
			}
			if err != nil {
				if !stopped() {
					violate("oracle transport error: %v", err)
				}
				return
			}
			rep.OracleOps++
			if time.Now().After(next) {
				next = time.Now().Add(cfg.CheckEvery)
				seen := make(map[int64]bool, len(local))
				if _, err := c.Scan(oLo, oHi, func(key int64) bool {
					seen[key] = true
					return true
				}); err != nil {
					if !stopped() {
						violate("oracle scan transport error: %v", err)
					}
					return
				}
				for key := range local {
					if !seen[key] {
						violate("oracle scan missing key %d (lost update)", key)
					}
				}
				for key := range seen {
					if !local[key] {
						violate("oracle scan phantom key %d", key)
					}
				}
				rep.OracleScans++
			}
		}
	}); err != nil {
		teardownEarly()
		return nil, err
	}

	// Stats monotonicity: the cumulative counters (not the point-in-time
	// LastLiveNodes/LastHorizon) must never decrease, including across
	// shard migrations — retired trees fold into the running sum.
	checkers.Add(1)
	go func() {
		defer checkers.Done()
		cumulative := func(s bst.Stats) [9]uint64 {
			return [9]uint64{
				s.RetriesInsert, s.RetriesDelete, s.RetriesFind, s.RetriesHorizon,
				s.Helps, s.HandshakeAborts, s.Scans, s.Compactions, s.PrunedLinks,
			}
		}
		names := [9]string{
			"RetriesInsert", "RetriesDelete", "RetriesFind", "RetriesHorizon",
			"Helps", "HandshakeAborts", "Scans", "Compactions", "PrunedLinks",
		}
		prev := cumulative(m.Stats())
		for {
			select {
			case <-done:
				return
			case <-time.After(cfg.CheckEvery):
			}
			cur := cumulative(m.Stats())
			for i := range cur {
				if cur[i] < prev[i] {
					violate("stats counter %s went backwards: %d -> %d", names[i], prev[i], cur[i])
				}
			}
			prev = cur
			rep.StatsSamples++ // single writer
		}
	}()

	// Heap bound: with compaction reclaiming version memory and TTL
	// retiring drifted keys, post-GC heap objects must plateau — a
	// steady climb is a version or node leak.
	checkers.Add(1)
	go func() {
		defer checkers.Done()
		var ms runtime.MemStats
		var baseline uint64
		for {
			select {
			case <-done:
				return
			case <-time.After(cfg.CheckEvery):
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			obj := ms.HeapObjects
			rep.HeapSamples++ // single writer
			if obj > rep.PeakHeapObjs {
				rep.PeakHeapObjs = obj
			}
			if baseline == 0 {
				baseline = obj // first sample: load already running
				continue
			}
			if limit := 5*baseline + 1<<19; obj > limit {
				violate("heap objects %d exceed limit %d (baseline %d): leak", obj, limit, baseline)
			}
		}
	}()

	// --- workload -----------------------------------------------------
	drift := Scenario{Mix: workload.Mix{InsertPct: 20}, ReadLatest: true, TTL: true}
	driftStream := drift.StreamFor(k, cfg.Seed)
	updates := workload.StreamConfig{
		Mix:      workload.Mix{InsertPct: 25, DeletePct: 25, ScanPct: 5, RMWPct: 5, ScanWidth: 64},
		KeyRange: k,
		ZipfSkew: cfg.ZipfSkew,
	}
	lcfg := loadgen.Config{
		Addr:     addr,
		Conns:    cfg.Conns,
		Pipeline: 8,
		Batch:    4, // MBATCH frames ride alongside scans/RMWs under churn
		Duration: cfg.Duration,
		KeyRange: k,
		Prefill:  int(k / 4),
		Seed:     cfg.Seed,
		Rate:     cfg.Rate,
		Cancel:   cfg.Stop,
		StreamFor: func(conn int) *workload.Stream {
			if conn == 0 {
				return driftStream(0) // working-set drift + TTL expiry
			}
			return workload.NewStream(updates, cfg.Seed*1_000_003+uint64(conn))
		},
	}
	logf("soak: driving %d conns for %v (rate=%v)", cfg.Conns, cfg.Duration, cfg.Rate)
	t0 := time.Now()
	res, lErr := loadgen.Run(lcfg)

	// --- teardown & final audit ---------------------------------------
	close(done)
	checkers.Wait()
	stopRb()
	stopCompact()
	rep.Elapsed = time.Since(t0)

	if lErr != nil {
		violate("workload setup failed: %v", lErr)
	} else {
		rep.Ops = res.TotalOps()
		rep.ScanKeys = res.ScanKeys
		rep.Offered = res.Offered
		rep.Dropped = res.Dropped
		if res.Errors > 0 {
			violate("%d TagErr replies from the server", res.Errors)
		}
		if res.TransportErrs > 0 {
			violate("%d workload transport failures (first: %v)", res.TransportErrs, res.TransportErr)
		}
		if rep.Ops == 0 {
			violate("workload completed zero operations")
		}
	}
	if rep.TearChecks == 0 {
		violate("tear scanner never completed a scan")
	}
	if rep.OracleScans == 0 {
		violate("oracle never completed a set comparison")
	}

	rep.Splits, rep.Merges = m.Migrations()
	st := m.Stats()
	rep.Compactions = st.Compactions
	if err := m.CheckInvariants(); err != nil {
		violate("final CheckInvariants: %v", err)
	}
	m.Compact() // settle version memory before auditing its size
	rep.FinalLen = m.Len()
	rep.VersionGraph = m.VersionGraphSize()
	if limit := 4*rep.FinalLen + 128*m.Shards() + 1024; rep.VersionGraph > limit {
		violate("version graph %d exceeds %d (len=%d, shards=%d): Compact not reclaiming",
			rep.VersionGraph, limit, rep.FinalLen, m.Shards())
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		violate("server shutdown: %v", err)
	} else {
		rep.Drained = true
	}

	// Durability audit: stop the checkpointer, seal the WAL, and recover
	// the directory from scratch — the image must equal the final live
	// set exactly (every acknowledged update present, nothing extra).
	if pm != nil {
		if stopCkpt != nil {
			stopCkpt()
		}
		pst := pm.Stats()
		rep.Checkpoints = pst.Checkpoints
		rep.WALAppends = pst.WALAppends
		if pst.CheckpointErrs > 0 {
			violate("%d background checkpoints failed", pst.CheckpointErrs)
		}
		if err := pm.Close(); err != nil {
			violate("persist close: %v", err)
		}
		img, err := persist.Recover(cfg.PersistDir)
		if err != nil {
			violate("teardown recovery: %v", err)
		} else {
			rep.RecoveredKeys = len(img.Keys)
			live := m.Keys()
			rep.RecoveryVerified = int64Slices(img.Keys, live)
			if !rep.RecoveryVerified {
				violate("recovered image (%d keys) != final live set (%d keys)", len(img.Keys), len(live))
			}
		}
	}
	auditEvents(rep, violate, obsMark, obsCounts, m, pm != nil)
	logf("soak: %s", rep)
	return rep, nil
}

// auditEvents cross-checks the flight recorder's log against the run:
// the control-plane machinery that was provably active (rebalancer,
// compactor, and with persist the checkpointer and WAL) must have left
// events, and the phase stamps — all cut on the store's shared clock —
// must be mutually consistent: per-type monotone for migration,
// checkpoint and walsync (each has a single sequential emitter), every
// WAL rotation's sealed-max phase at or below the cut of the checkpoint
// that follows it, and nothing stamped beyond the final clock reading.
// Presence is asserted on cumulative counters (ring eviction cannot hide
// an event type); ordering on whatever the ring still holds.
func auditEvents(rep *SoakReport, violate func(string, ...any), mark uint64,
	base [obs.NumEventTypes]uint64, m *bst.ShardedMap, durable bool) {

	counts := obs.Default.Counts()
	rep.EventCounts = make(map[string]uint64, obs.NumEventTypes-1)
	for t := 1; t < obs.NumEventTypes; t++ {
		rep.EventCounts[obs.EventType(t).String()] = counts[t] - base[t]
	}
	rep.EventSummary = obs.Default.Summary()

	// Presence: every control-plane action the store's own counters prove
	// happened must have left an event. (Unconditional presence would
	// flake on very short runs where e.g. no split ever triggered.)
	if counts[obs.EventDrain] == base[obs.EventDrain] {
		violate("flight recorder: no drain event despite a server shutdown")
	}
	if s, mg := m.Migrations(); s+mg > 0 && counts[obs.EventMigration] == base[obs.EventMigration] {
		violate("flight recorder: %d migrations happened but no migration events", s+mg)
	}
	if st := m.Stats(); st.PrunedLinks > 0 && counts[obs.EventCompact] == base[obs.EventCompact] {
		violate("flight recorder: compaction pruned %d links but left no compact events", st.PrunedLinks)
	}
	if durable {
		if rep.Checkpoints > 0 && counts[obs.EventCheckpoint] == base[obs.EventCheckpoint] {
			violate("flight recorder: %d checkpoints but no checkpoint events", rep.Checkpoints)
		}
		if counts[obs.EventWALSync] == base[obs.EventWALSync] {
			violate("flight recorder: WAL ran but left no walsync events (close always emits)")
		}
	}

	finalPhase, _ := m.ClockNow()
	last := map[obs.EventType]uint64{}
	var maxRotate uint64
	for _, e := range obs.Default.Events(obs.Filter{SinceSeq: mark}) {
		switch e.Type {
		case obs.EventMigration, obs.EventCheckpoint, obs.EventWALSync:
			// Recovery events are stamped with the recovered lineage's max
			// phase, which predates this run's clock — skip them.
			if e.Type == obs.EventCheckpoint && e.Kind == obs.KindRecovery {
				continue
			}
			if p, ok := last[e.Type]; ok && e.Phase < p {
				violate("flight recorder: %s phases went backwards: %d after %d", e.Type, e.Phase, p)
			}
			last[e.Type] = e.Phase
			if e.Phase > finalPhase {
				violate("flight recorder: %s stamped phase %d beyond final clock %d", e.Type, e.Phase, finalPhase)
			}
			if e.Type == obs.EventWALSync && e.Kind == obs.KindRotate && e.Phase > maxRotate {
				maxRotate = e.Phase
			}
			if e.Type == obs.EventCheckpoint && maxRotate > e.Phase {
				violate("flight recorder: WAL rotation sealed phase %d above the following checkpoint cut %d",
					maxRotate, e.Phase)
			}
		}
	}
}

// int64Slices reports element-wise equality.
func int64Slices(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
