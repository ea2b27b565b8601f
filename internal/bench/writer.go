package bench

import (
	"fmt"
	"time"

	"cole"
	"cole/internal/types"
	"cole/internal/workload"
)

// populateWorkload labels the results of stores driven by the block
// writer: uniform, write-only traffic (workload.Spec.Label form).
const populateWorkload Workload = "uniform/r0"

// commitBlock lands ups on db as the block above its height and returns
// the block's Hstate: BeginBlock, one PutBatch, Commit. Every experiment
// outside the paper's figures writes its stores this way.
func commitBlock(db cole.DB, ups []types.Update) (types.Hash, error) {
	if err := db.BeginBlock(db.Height() + 1); err != nil {
		return types.Hash{}, err
	}
	if err := db.PutBatch(ups); err != nil {
		return types.Hash{}, err
	}
	return db.Commit()
}

// blockWriter populates and drives the stores of the experiments outside
// the paper's figures: blocks of cfg.TxPerBlock uniform writes over
// cfg.Records keys (workload.Key), deterministic in cfg.Seed.
type blockWriter struct {
	gen   workload.Generator
	batch []types.Update
}

// newBlockWriter starts the write stream of a defaulted cfg.
func newBlockWriter(cfg Config) *blockWriter {
	gen, err := workload.New(workload.Spec{Name: "uniform", Keys: cfg.Records, Seed: cfg.Seed})
	if err != nil {
		panic(err) // "uniform" is always a generator
	}
	return &blockWriter{gen: gen, batch: make([]types.Update, cfg.TxPerBlock)}
}

// write commits the next n blocks to every store in dbs, each at the
// height above that store's own, and returns the per-block Hstate
// digests and commit latencies (a block's latency covers all stores).
// A store that commits a block to another digest than dbs[0] did is an
// error: applying each block to several stores is how a digest-identity
// check compares configurations.
func (w *blockWriter) write(n int, dbs ...cole.DB) ([]types.Hash, []time.Duration, error) {
	roots := make([]types.Hash, 0, n)
	lats := make([]time.Duration, 0, n)
	for b := 0; b < n; b++ {
		for i := range w.batch {
			op := w.gen.Next()
			w.batch[i] = types.Update{Addr: op.Addr, Value: op.Value}
		}
		start := time.Now()
		for i, db := range dbs {
			root, err := commitBlock(db, w.batch)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				roots = append(roots, root)
			} else if ref := roots[len(roots)-1]; root != ref {
				return nil, nil, fmt.Errorf("block %d: store %d committed digest %s, store 0 %s", db.Height(), i, root, ref)
			}
		}
		lats = append(lats, time.Since(start))
	}
	return roots, lats, nil
}
