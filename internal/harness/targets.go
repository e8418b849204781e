package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/lockbst"
	"repro/internal/nbbst"
	"repro/internal/shard"
	"repro/internal/skiplist"
	"repro/internal/snapcollector"
)

// Target names accepted by NewInstance. The sharded target also accepts
// an explicit shard count suffix: "sharded4", "sharded16", ... (see
// ShardedTarget).
const (
	TargetPNBBST        = "pnbbst"        // the paper's tree (wait-free linearizable scans)
	TargetPNBBSTNoHS    = "pnbbst-nohs"   // ablation: handshake disabled (E9 only)
	TargetPNBBSTNoPool  = "pnbbst-nopool" // ablation: post-horizon recycling off (E12; DESIGN.md §10)
	TargetNBBST         = "nbbst"         // Ellen et al. baseline (unsafe scans)
	TargetLockBST       = "lockbst"       // RWMutex tree (blocking scans)
	TargetSkipList      = "skiplist"      // lock-free skip list (unsafe scans)
	TargetSnapCollector = "snapcollector" // Petrank–Timnat scans on the skip list
	TargetSharded       = "sharded"       // keyspace-sharded PNB-BSTs (DefaultShards shards, shared clock: atomic cross-shard scans)
	TargetShardedAuto   = "sharded-auto"  // sharded with a background load-driven rebalancer (online splits/merges, E14)
)

// DefaultShards is the shard count of the plain "sharded" target.
const DefaultShards = 8

// ShardedTarget returns the target name selecting an n-shard sharded
// PNB-BST, e.g. ShardedTarget(16) == "sharded16".
func ShardedTarget(n int) string { return fmt.Sprintf("sharded%d", n) }

// autoSuffix marks the auto-rebalancing variant of the sharded family.
const autoSuffix = "-auto"

// ShardedAutoTarget returns the target name selecting an n-shard sharded
// PNB-BST with a background load-driven rebalancer, e.g.
// ShardedAutoTarget(16) == "sharded16-auto". n is only the INITIAL shard
// count; the rebalancer splits and merges online.
func ShardedAutoTarget(n int) string { return ShardedTarget(n) + autoSuffix }

// ParseShardedAutoTarget reports whether name selects the
// auto-rebalancing sharded variant, and with how many initial shards.
// The same canonical-only rule as ParseShardedTarget applies, so every
// accepted name round-trips through ShardedAutoTarget.
func ParseShardedAutoTarget(name string) (int, bool) {
	base, ok := strings.CutSuffix(name, autoSuffix)
	if !ok {
		return 0, false
	}
	return ParseShardedTarget(base)
}

// ParseShardedTarget reports whether name selects the sharded target, and with
// how many shards. Only canonical names are accepted: "sharded" or
// "sharded<N>" where <N> is a positive decimal with no sign, leading
// zeros or other decoration, so every accepted name round-trips through
// ShardedTarget ("sharded+4" and "sharded04" are rejected).
func ParseShardedTarget(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, TargetSharded)
	if !ok {
		return 0, false
	}
	if rest == "" {
		return DefaultShards, true
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 || strconv.Itoa(n) != rest {
		return 0, false
	}
	return n, true
}

// Targets returns all registered implementation names, sorted. The
// parametric "sharded<N>" and "sharded<N>-auto" families are
// represented by their default entries.
func Targets() []string {
	names := make([]string, 0, len(factories)+2)
	for n := range factories {
		names = append(names, n)
	}
	names = append(names, TargetSharded, TargetShardedAuto)
	sort.Strings(names)
	return names
}

// factories build an instance for a key workload concentrated on
// [lo, hi]; the fixed targets all ignore the range. The sharded family
// ("sharded", "sharded<N>") is resolved by ParseShardedTarget in FactoryRange,
// not listed here, so it has a single construction path.
var factories = map[string]func(lo, hi int64) Instance{
	TargetPNBBST:     func(_, _ int64) Instance { return pnbInstance{core.New()} },
	TargetPNBBSTNoHS: func(_, _ int64) Instance { return pnbInstance{core.NewUnsafeNoHandshake()} },
	TargetPNBBSTNoPool: func(_, _ int64) Instance {
		t := core.New()
		t.SetPooling(false)
		return pnbInstance{t}
	},
	TargetNBBST:         func(_, _ int64) Instance { return nbInstance{nbbst.New()} },
	TargetLockBST:       func(_, _ int64) Instance { return lockInstance{lockbst.New()} },
	TargetSkipList:      func(_, _ int64) Instance { return slInstance{skiplist.New()} },
	TargetSnapCollector: func(_, _ int64) Instance { return scInstance{snapcollector.New()} },
}

// FactoryRange returns the constructor for a named target; the returned
// function partitions shard boundaries over [lo, hi] for sharded targets
// (other targets ignore the range).
func FactoryRange(name string) (func(lo, hi int64) Instance, error) {
	if f, ok := factories[name]; ok {
		return f, nil
	}
	if n, ok := ParseShardedAutoTarget(name); ok {
		return func(lo, hi int64) Instance {
			s := shard.NewRange(lo, hi, n)
			return &shAutoInstance{shInstance: shInstance{s}, stop: s.AutoRebalance(shard.RebalanceConfig{})}
		}, nil
	}
	if n, ok := ParseShardedTarget(name); ok {
		return func(lo, hi int64) Instance { return shInstance{shard.NewRange(lo, hi, n)} }, nil
	}
	return nil, fmt.Errorf("harness: unknown target %q (have %v, plus sharded<N> and sharded<N>-auto)", name, Targets())
}

// Factory returns the no-argument constructor for a named target;
// sharded targets partition the full key space.
func Factory(name string) (func() Instance, error) {
	f, err := FactoryRange(name)
	if err != nil {
		return nil, err
	}
	return func() Instance { return f(core.MinKey, core.MaxKey) }, nil
}

// NewInstance constructs a named target, panicking on unknown names.
func NewInstance(name string) Instance {
	f, err := Factory(name)
	if err != nil {
		panic(err)
	}
	return f()
}

// NewInstanceRange constructs a named target focused on the key interval
// [lo, hi], panicking on unknown names. For sharded targets the shard
// boundaries split [lo, hi] evenly; other targets are unaffected.
func NewInstanceRange(name string, lo, hi int64) Instance {
	f, err := FactoryRange(name)
	if err != nil {
		panic(err)
	}
	return f(lo, hi)
}

type pnbInstance struct{ t *core.Tree }

func (i pnbInstance) Insert(k int64) bool   { return i.t.Insert(k) }
func (i pnbInstance) Delete(k int64) bool   { return i.t.Delete(k) }
func (i pnbInstance) Contains(k int64) bool { return i.t.Find(k) }
func (i pnbInstance) Scan(a, b int64) int   { return i.t.RangeCount(a, b) }

type nbInstance struct{ t *nbbst.Tree }

func (i nbInstance) Insert(k int64) bool   { return i.t.Insert(k) }
func (i nbInstance) Delete(k int64) bool   { return i.t.Delete(k) }
func (i nbInstance) Contains(k int64) bool { return i.t.Find(k) }
func (i nbInstance) Scan(a, b int64) int   { return i.t.RangeCountUnsafe(a, b) }

type lockInstance struct{ t *lockbst.Tree }

func (i lockInstance) Insert(k int64) bool   { return i.t.Insert(k) }
func (i lockInstance) Delete(k int64) bool   { return i.t.Delete(k) }
func (i lockInstance) Contains(k int64) bool { return i.t.Find(k) }
func (i lockInstance) Scan(a, b int64) int   { return i.t.RangeCount(a, b) }

type slInstance struct{ l *skiplist.List }

func (i slInstance) Insert(k int64) bool   { return i.l.Insert(k) }
func (i slInstance) Delete(k int64) bool   { return i.l.Delete(k) }
func (i slInstance) Contains(k int64) bool { return i.l.Find(k) }
func (i slInstance) Scan(a, b int64) int   { return i.l.RangeCountUnsafe(a, b) }

type scInstance struct{ s *snapcollector.Set }

func (i scInstance) Insert(k int64) bool   { return i.s.Insert(k) }
func (i scInstance) Delete(k int64) bool   { return i.s.Delete(k) }
func (i scInstance) Contains(k int64) bool { return i.s.Find(k) }
func (i scInstance) Scan(a, b int64) int   { return len(i.s.RangeScan(a, b)) }

type shInstance struct{ s *shard.Set }

func (i shInstance) Insert(k int64) bool   { return i.s.Insert(k) }
func (i shInstance) Delete(k int64) bool   { return i.s.Delete(k) }
func (i shInstance) Contains(k int64) bool { return i.s.Find(k) }
func (i shInstance) Scan(a, b int64) int   { return i.s.RangeCount(a, b) }

// shAutoInstance is a sharded instance with a running background
// rebalancer. Close stops the rebalancer; Run closes every closing
// instance when the measurement window ends (the instance itself
// remains readable afterwards — only migrations stop).
type shAutoInstance struct {
	shInstance
	stop func()
}

func (i *shAutoInstance) Close() error { i.stop(); return nil }

// ShardCount reports the current number of shards of a sharded-family
// instance; ok is false for unsharded targets. With an auto-rebalancing
// instance the count moves while the workload runs (experiment E14
// traces it).
func ShardCount(i Instance) (int, bool) {
	if s, ok := shardSetOf(i); ok {
		return s.Shards(), true
	}
	return 0, false
}

// Migrations reports how many shard splits and merges an instance has
// performed; ok is false for unsharded targets.
func Migrations(i Instance) (splits, merges uint64, ok bool) {
	if s, ok := shardSetOf(i); ok {
		splits, merges = s.Migrations()
		return splits, merges, true
	}
	return 0, 0, false
}

// shardSetOf unwraps the shard.Set behind any sharded-family instance.
func shardSetOf(i Instance) (*shard.Set, bool) {
	switch v := i.(type) {
	case shInstance:
		return v.s, true
	case *shAutoInstance:
		return v.s, true
	default:
		return nil, false
	}
}

// PNBStats exposes the PNB-BST instrumentation counters of an instance
// created by this package, for the E9 ablation report; ok is false for
// targets not built on the PNB-BST. Sharded instances report the
// element-wise sum over their shards.
func PNBStats(i Instance) (core.StatsSnapshot, bool) {
	if v, ok := i.(pnbInstance); ok {
		return v.t.Stats(), true
	}
	if s, ok := shardSetOf(i); ok {
		return s.Stats(), true
	}
	return core.StatsSnapshot{}, false
}

// Compact prunes version memory of an instance built on the PNB-BST
// (pnbbst, pnbbst-nohs, sharded<N>); ok is false for the baselines,
// which retain no versions. The E12 memory experiment and cmd/stress
// -compact drive pruning through this.
func Compact(i Instance) (core.CompactStats, bool) {
	if v, ok := i.(pnbInstance); ok {
		return v.t.Compact(), true
	}
	if s, ok := shardSetOf(i); ok {
		return s.Compact(), true
	}
	return core.CompactStats{}, false
}

// VersionGraphSize returns the number of nodes reachable in the
// instance's version graph (summed over shards); ok is false for targets
// without version persistence. Exact only at quiescence.
func VersionGraphSize(i Instance) (int, bool) {
	if v, ok := i.(pnbInstance); ok {
		return v.t.VersionGraphSize(), true
	}
	if s, ok := shardSetOf(i); ok {
		return s.VersionGraphSize(), true
	}
	return 0, false
}
