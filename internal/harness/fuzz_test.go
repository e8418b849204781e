package harness

import (
	"strings"
	"testing"
)

// FuzzParseShardedTarget fuzzes the sharded-family target grammar:
// arbitrary names must never panic, the two parsers (plain, -auto) must
// be mutually exclusive, every accepted name must satisfy the
// canonical-only contract (round-trip through its builder, shard count
// >= 1), and every accepted name must resolve through FactoryRange. The
// checked-in corpus under testdata/fuzz seeds the canonical spellings
// and the documented rejections; CI runs a short-budget smoke.
func FuzzParseShardedTarget(f *testing.F) {
	for _, s := range []string{
		"sharded", "sharded1", "sharded16",
		"sharded-auto", "sharded8-auto", "sharded04", "sharded+4", "sharded4.0",
		"pnbbst", "", "sharded18446744073709551616",
		"sharded\x004", "ShArDeD4", "sharded-1", "sharded9999999999",
		// The removed relaxed-scan family: must be rejected everywhere.
		"sharded-relaxed", "sharded8-relaxed", "sharded4-relaxed-auto",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		n1, ok1 := ParseShardedTarget(name)
		n2, ok2 := ParseShardedAutoTarget(name)
		if ok1 && ok2 {
			t.Fatalf("%q accepted by both parsers", name)
		}

		// Canonical-only: each accepted name is exactly what its builder
		// prints (or the family's bare default), and the count is positive.
		check := func(n int, build func(int) string, bare string) {
			if n < 1 {
				t.Fatalf("%q parsed with shard count %d", name, n)
			}
			if name != bare && build(n) != name {
				t.Fatalf("%q does not round-trip: builder prints %q", name, build(n))
			}
			if name == bare && n != DefaultShards {
				t.Fatalf("bare %q parsed as %d shards, want DefaultShards", name, n)
			}
		}
		switch {
		case ok1:
			check(n1, ShardedTarget, TargetSharded)
		case ok2:
			check(n2, ShardedAutoTarget, TargetShardedAuto)
		default:
			// Rejected names starting with the family prefix must also be
			// rejected by the factory (no secret spellings).
			if strings.HasPrefix(name, TargetSharded) {
				if _, err := FactoryRange(name); err == nil {
					t.Fatalf("FactoryRange accepted %q, which every parser rejected", name)
				}
			}
			return
		}
		// Accepted names resolve to a constructor (not invoked: a name
		// like "sharded9999999" would build that many trees).
		if _, err := FactoryRange(name); err != nil {
			t.Fatalf("FactoryRange rejected accepted name %q: %v", name, err)
		}
	})
}
