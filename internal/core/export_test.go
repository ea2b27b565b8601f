package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Open creates or reopens a COLE store in opts.Dir with its own merge
// pool of opts.MergeWorkers workers and its own page cache.
func Open(opts Options) (*Engine, error) {
	return OpenShared(opts, nil, nil, 0)
}

// LevelRunCounts returns, per on-disk level, the number of committed runs
// (both groups), for introspection and tests.
func (e *Engine) LevelRunCounts() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, len(e.levels))
	for i, lv := range e.levels {
		out[i] = len(lv.groups[0]) + len(lv.groups[1])
	}
	return out
}

// UnmarshalProof parses a proof produced by Marshal.
func UnmarshalProof(raw []byte) (*Proof, error) {
	var p Proof
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decode proof: %w", err)
	}
	return &p, nil
}
