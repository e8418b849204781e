package harness

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parse builds a fresh FlagSet with the full target cluster and parses
// args, returning the cluster for Resolve checks.
func parseTargetFlags(t *testing.T, args ...string) *TargetFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tf := RegisterTargetFlags(fs, "pnbbst", true)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return tf
}

func TestTargetFlagsResolve(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "pnbbst"},
		{[]string{"-impl", "sharded"}, "sharded8"},
		{[]string{"-impl", "sharded", "-shards", "16"}, "sharded16"},
		{[]string{"-impl", "sharded4"}, "sharded4"},
		{[]string{"-impl", "sharded4", "-rebalance"}, "sharded4-auto"},
		{[]string{"-impl", "sharded-auto", "-shards", "2"}, "sharded2-auto"},
		{[]string{"-impl", "sharded2-auto", "-rebalance"}, "sharded2-auto"},
		{[]string{"-impl", "nbbst"}, "nbbst"},
		{[]string{"-impl", "sharded", "-zipf", "1.2"}, "sharded8"},
	}
	for _, c := range cases {
		tf := parseTargetFlags(t, c.args...)
		got, err := tf.Resolve(1 << 20)
		if err != nil || got != c.want {
			t.Errorf("Resolve(%v) = %q, %v; want %q", c.args, got, err, c.want)
		}
		// Every resolved name must construct.
		if _, err := Factory(got); err != nil {
			t.Errorf("Resolve(%v) returned unbuildable target %q: %v", c.args, got, err)
		}
	}
}

func TestTargetFlagsResolveErrors(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-impl", "pnbbst", "-shards", "4"}, "-shards only applies"},
		{[]string{"-impl", "nbbst", "-rebalance"}, "-rebalance only applies"},
		{[]string{"-impl", "sharded", "-shards", "0"}, "shard count"},
		{[]string{"-impl", "nosuch"}, "unknown target"},
		{[]string{"-impl", "sharded", "-zipf", "0.5"}, "-zipf must be > 1"},
	}
	for _, c := range cases {
		tf := parseTargetFlags(t, c.args...)
		_, err := tf.Resolve(1 << 20)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Resolve(%v) err = %v, want substring %q", c.args, err, c.wantSub)
		}
	}
	// Key range bounds the shard count.
	tf := parseTargetFlags(t, "-impl", "sharded", "-shards", "64")
	if _, err := tf.Resolve(32); err == nil {
		t.Error("shard count 64 accepted for key range 32")
	}
	if got, err := tf.Resolve(MaxShardKeyRange); err != nil || got != "sharded64" {
		t.Errorf("unbounded resolve = %q, %v", got, err)
	}
}

func TestParseAnySharded(t *testing.T) {
	for name, want := range map[string]int{
		"sharded": 8, "sharded4": 4, "sharded16-auto": 16,
	} {
		if n, ok := ParseAnySharded(name); !ok || n != want {
			t.Errorf("ParseAnySharded(%q) = %d, %v", name, n, ok)
		}
	}
	for _, name := range []string{"pnbbst", "sharded04", "sharded4-relaxed", "sharded4-relaxed-auto"} {
		if _, ok := ParseAnySharded(name); ok {
			t.Errorf("ParseAnySharded(%q) accepted", name)
		}
	}
}

// TestRelaxedSpellingsRejected: the relaxed-scan target family and the
// -relaxed flag no longer exist, and their old spellings must fail
// loudly — unknown to Factory and Resolve, undefined as a flag — rather
// than quietly run the atomic store.
func TestRelaxedSpellingsRejected(t *testing.T) {
	for _, name := range []string{"sharded-relaxed", "sharded4-relaxed"} {
		if _, err := Factory(name); err == nil || !strings.Contains(err.Error(), "unknown target") {
			t.Errorf("Factory(%q) err = %v, want an unknown-target error", name, err)
		}
		tf := parseTargetFlags(t, "-impl", name)
		if _, err := tf.Resolve(1 << 20); err == nil || !strings.Contains(err.Error(), "unknown target") {
			t.Errorf("Resolve(-impl %s) err = %v, want an unknown-target error", name, err)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterTargetFlags(fs, "sharded", false)
	if err := fs.Parse([]string{"-relaxed"}); err == nil {
		t.Error("-relaxed parsed; want an undefined-flag error")
	}
}

func TestMixFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	m := RegisterMixFlags(fs)
	if err := fs.Parse([]string{"-insert", "40", "-delete", "40", "-scan", "20", "-scanwidth", "64"}); err != nil {
		t.Fatal(err)
	}
	mix, err := m.Mix()
	if err != nil {
		t.Fatal(err)
	}
	if mix.InsertPct != 40 || mix.FindPct() != 0 || mix.ScanWidth != 64 {
		t.Fatalf("mix = %+v", mix)
	}
	m.Insert = 90
	if _, err := m.Mix(); err == nil {
		t.Fatal("over-100 mix accepted")
	}
	m.Insert = -1
	if _, err := m.Mix(); err == nil {
		t.Fatal("negative percentage accepted")
	}
}

// TestZipfFlagShared: the standalone registration (loadgen's) shares the
// definition used inside the target cluster.
func TestZipfFlagShared(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	z := RegisterZipfFlag(fs)
	if err := fs.Parse([]string{"-zipf", "1.3"}); err != nil {
		t.Fatal(err)
	}
	if *z != 1.3 {
		t.Fatalf("zipf = %g", *z)
	}
	// Without RegisterZipf the cluster reports 0.
	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	tf := RegisterTargetFlags(fs2, "sharded", false)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tf.Zipf() != 0 {
		t.Fatalf("unregistered zipf = %g", tf.Zipf())
	}
}
