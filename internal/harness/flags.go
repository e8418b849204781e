package harness

import (
	"flag"
	"fmt"

	"repro/internal/workload"
)

// TargetFlags is the -impl/-shards/-rebalance (and optionally -zipf)
// flag cluster shared by cmd/benchbst, cmd/stress and cmd/bstserver,
// with the target-resolution rules that used to be re-implemented per
// binary: canonicalization of the sharded family, shard-count bounds,
// and -zipf validation.
type TargetFlags struct {
	Impl      string
	Shards    int
	Rebalance bool

	zipf *float64 // nil when registered without RegisterZipf
	fs   *flag.FlagSet
}

// RegisterTargetFlags declares the cluster on fs with the given default
// implementation. Pass zipf=true to include the -zipf workload-skew
// flag (binaries that generate load locally); servers leave it out.
func RegisterTargetFlags(fs *flag.FlagSet, defaultImpl string, zipf bool) *TargetFlags {
	t := &TargetFlags{fs: fs}
	fs.StringVar(&t.Impl, "impl", defaultImpl, "implementation under test (any harness target: pnbbst, nbbst, lockbst, skiplist, snapcollector, sharded[<N>][-auto], ...)")
	fs.IntVar(&t.Shards, "shards", DefaultShards, "shard count (with a sharded -impl)")
	fs.BoolVar(&t.Rebalance, "rebalance", false, "background load-driven shard rebalancer: online splits/merges (with a sharded -impl)")
	if zipf {
		t.zipf = RegisterZipfFlag(fs)
	}
	return t
}

// RegisterZipfFlag declares the shared -zipf flag on fs (clustered
// zipfian key skew; loadgen registers it without the rest of the target
// cluster, since the implementation choice lives server-side).
func RegisterZipfFlag(fs *flag.FlagSet) *float64 {
	return fs.Float64("zipf", 0, "clustered zipfian key skew, e.g. 1.2; 0 = uniform")
}

// RegisterBatchFlag declares the shared -batch flag on fs (MBATCH
// grouping of consecutive point operations on the wire; a transport
// knob, so it composes with -scenario the way -conns and -pipeline do).
func RegisterBatchFlag(fs *flag.FlagSet) *int {
	return fs.Int("batch", 0, "group consecutive point ops into MBATCH frames of up to this many ops; <=1 = one frame per op")
}

// Zipf returns the -zipf value (0 when the flag was not registered).
func (t *TargetFlags) Zipf() float64 {
	if t.zipf == nil {
		return 0
	}
	return *t.zipf
}

// Set reports whether the named flag of the cluster was set explicitly
// on the command line (flag.Parse must have run).
func (t *TargetFlags) Set(name string) bool { return FlagWasSet(t.fs, name) }

// FlagWasSet reports whether the named flag was set explicitly on fs
// (after parsing) — the "was a default overridden?" probe the binaries
// share.
func FlagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// Resolve validates the cluster and returns the canonical harness
// target name: "sharded"/"sharded-auto" pick up the -shards count,
// -rebalance rewrites a sharded target to its auto variant, and every
// result is checked against the target registry.
// keyRange bounds the shard count (each shard must own at least one
// key); pass MaxShardKeyRange when no workload bound applies.
func (t *TargetFlags) Resolve(keyRange int64) (string, error) {
	target := t.Impl
	if t.Set("shards") && t.Shards < 1 {
		return "", fmt.Errorf("shard count %d outside [1, %d] (the key range bounds the shard count)", t.Shards, keyRange)
	}
	switch target {
	case TargetSharded:
		target = ShardedTarget(t.Shards)
	case TargetShardedAuto:
		target = ShardedAutoTarget(t.Shards)
	default:
		if t.Set("shards") {
			return "", fmt.Errorf("-shards only applies to -impl %s or %s",
				TargetSharded, TargetShardedAuto)
		}
	}
	if t.Rebalance {
		if n, ok := ParseShardedTarget(target); ok {
			target = ShardedAutoTarget(n)
		} else if _, ok := ParseShardedAutoTarget(target); !ok {
			return "", fmt.Errorf("-rebalance only applies to sharded implementations")
		}
	}
	if n, ok := ParseAnySharded(target); ok && (n < 1 || int64(n) > keyRange) {
		return "", fmt.Errorf("shard count %d outside [1, %d] (the key range bounds the shard count)", n, keyRange)
	}
	if zipf := t.Zipf(); zipf != 0 && zipf <= 1 {
		return "", fmt.Errorf("-zipf must be > 1 (got %g); 0 disables skew", zipf)
	}
	if _, err := Factory(target); err != nil {
		return "", err
	}
	return target, nil
}

// MaxShardKeyRange is the keyRange to pass to Resolve when the workload
// does not bound the shard count.
const MaxShardKeyRange = int64(1) << 62

// ParseAnySharded reports whether name belongs to any sharded target
// family (plain or -auto), and with how many shards.
func ParseAnySharded(name string) (int, bool) {
	if n, ok := ParseShardedTarget(name); ok {
		return n, true
	}
	return ParseShardedAutoTarget(name)
}

// MixFlags is the shared -insert/-delete/-scan/-rmw/-scanwidth
// operation-mix cluster (cmd/benchbst one-off runs, cmd/loadgen).
type MixFlags struct {
	Insert, Delete, Scan, RMW int
	ScanWidth                 int64
}

// RegisterMixFlags declares the mix cluster on fs with the repo's
// standard defaults (25/25/10/0, width 100; the remainder to 100 is
// Contains).
func RegisterMixFlags(fs *flag.FlagSet) *MixFlags {
	m := &MixFlags{}
	fs.IntVar(&m.Insert, "insert", 25, "insert percentage")
	fs.IntVar(&m.Delete, "delete", 25, "delete percentage")
	fs.IntVar(&m.Scan, "scan", 10, "range-scan percentage")
	fs.IntVar(&m.RMW, "rmw", 0, "read-modify-write percentage (rest is find)")
	fs.Int64Var(&m.ScanWidth, "scanwidth", 100, "range-scan width in keys")
	return m
}

// Mix converts the flags to a workload.Mix, validating the percentages.
func (m *MixFlags) Mix() (workload.Mix, error) {
	if m.Insert < 0 || m.Delete < 0 || m.Scan < 0 || m.RMW < 0 ||
		m.Insert+m.Delete+m.Scan+m.RMW > 100 {
		return workload.Mix{}, fmt.Errorf("operation mix %d/%d/%d/%d invalid: percentages must be non-negative and sum to at most 100",
			m.Insert, m.Delete, m.Scan, m.RMW)
	}
	return workload.Mix{
		InsertPct: m.Insert, DeletePct: m.Delete,
		ScanPct: m.Scan, RMWPct: m.RMW, ScanWidth: m.ScanWidth,
	}, nil
}
