package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/bst"
	"repro/internal/persist"
)

// imageStats is what preparing the durable image measured on the way.
type imageStats struct {
	keys            int
	checkpointTook  time.Duration
	checkpointBytes int64
	tailRecords     int
}

// prepareImage builds, untimed, the directory wire-durable recovers in
// its set-up: a checkpoint of the even keys of [0, K) — 2^19 keys on a
// full run — plus a WAL tail that inserts tailKeys odd keys and deletes
// them again. The tail leaves the key set unchanged but has to be
// replayed record by record, which makes recovery at least a second of
// real work on a full run (2^20 records). The recovered map must again
// hold exactly the even keys.
func prepareImage(dir string, keyBits uint, tailKeys int64) (st imageStats, err error) {
	k := int64(1) << keyBits
	m := bst.NewShardedRange(0, k-1, storeShards)
	pm, _, err := persist.Open(persist.Config{Dir: dir}, m)
	if err != nil {
		return st, err
	}
	defer func() {
		if cerr := pm.Close(); err == nil {
			err = cerr
		}
	}()
	keys := evenKeys(k)
	if added, err := pm.BulkLoad(keys); err != nil || added != len(keys) {
		return st, fmt.Errorf("preparing image: BulkLoad added %d of %d keys: %v", added, len(keys), err)
	}
	cs, err := pm.Checkpoint()
	if err != nil {
		return st, err
	}
	fi, err := os.Stat(cs.Path)
	if err != nil {
		return st, err
	}
	st = imageStats{keys: cs.Keys, checkpointTook: cs.Took, checkpointBytes: fi.Size()}

	// One ApplyBatch is one WAL frame and one fsync, so the tail is cheap
	// to write; ascending keys keep the tree walks in cache.
	const batch = 8192
	ops := make([]bst.BatchOp, 0, batch)
	res := make([]bool, batch)
	flush := func() error {
		pm.ApplyBatch(ops, res)
		for i := range ops {
			if !res[i] {
				return fmt.Errorf("preparing image: tail op on key %d had no effect", ops[i].Key)
			}
		}
		st.tailRecords += len(ops)
		ops = ops[:0]
		return nil
	}
	for _, kind := range []bst.BatchKind{bst.BatchInsert, bst.BatchDelete} {
		for x := int64(0); x < tailKeys; x++ {
			if ops = append(ops, bst.BatchOp{Kind: kind, Key: 2*x + 1}); len(ops) == batch {
				if err := flush(); err != nil {
					return st, err
				}
			}
		}
		if err := flush(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the files in dir whose names match pattern.
func dirBytes(dir, pattern string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
