package shard

import (
	"errors"
	"fmt"
	"path/filepath"

	"cole/internal/core"
	"cole/internal/run"
	"cole/internal/vfs"
)

// VerifyStore scrubs a closed store directory — sharded or not — and
// reports every integrity defect: the SHARDS layout file, then every
// shard engine's manifest and runs (see core.VerifyStore). The store
// must not be open (the scrub reads files a live merge could retire).
// notes carries non-fatal observations; err is operational only — a
// corrupt store is reported through findings, not err.
func VerifyStore(fsys vfs.FS, dir string, fast bool) (findings []run.Finding, notes []string, err error) {
	fsys = vfs.OrOS(fsys)
	if _, serr := fsys.Stat(dir); serr != nil {
		return nil, nil, fmt.Errorf("shard: %s is not a store directory", dir)
	}
	// Hold the store's advisory lock for the scrub's duration: scrubbing
	// a directory a live process is committing to would report phantom
	// damage from half-written runs. (An injected filesystem is
	// process-local; there is nothing for flock to arbitrate.)
	if vfs.IsOS(fsys) {
		unlock, lerr := LockDir(dir)
		if lerr != nil {
			return nil, nil, lerr
		}
		defer unlock()
	}
	layoutPath := filepath.Join(dir, manifestName)
	n, gen, pinned, lerr := PersistedLayout(fsys, dir)
	var damaged *layoutError
	switch {
	case errors.As(lerr, &damaged):
		return []run.Finding{{File: layoutPath, Page: -1, Detail: damaged.detail}}, nil, nil
	case lerr != nil:
		return nil, nil, lerr
	case !pinned:
		// Legacy/unsharded layout: one engine at the store root. A
		// directory of shard subdirectories with no SHARDS file is the
		// torn-layout state Open refuses; the scrub reports it instead.
		if gerr := guardOrphanedShards(fsys, dir); gerr != nil {
			return []run.Finding{{File: layoutPath, Page: -1, Detail: gerr.Error()}}, nil, nil
		}
		return core.VerifyStore(fsys, dir, fast)
	}
	for i := 0; i < n; i++ {
		ed := EngineDir(dir, gen, n, i)
		if _, serr := fsys.Stat(ed); serr != nil && ed != dir {
			findings = append(findings, run.Finding{File: ed, Page: -1,
				Detail: fmt.Sprintf("shard %d engine directory missing", i)})
			continue
		}
		efs, ens, verr := core.VerifyStore(fsys, ed, fast)
		if verr != nil {
			return findings, notes, fmt.Errorf("shard %d: %w", i, verr)
		}
		findings = append(findings, efs...)
		for _, nt := range ens {
			notes = append(notes, fmt.Sprintf("shard %d: %s", i, nt))
		}
	}
	return findings, notes, nil
}
