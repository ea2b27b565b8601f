package core

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strings"

	"cole/internal/run"
	"cole/internal/vfs"
)

// This file is the engine's offline integrity scrub (`coledb fsck`):
// walk a closed engine directory — manifest plus every committed run —
// and report every file whose bytes fail an integrity invariant. The
// directory must not be open in an engine (the scrub reads files that a
// live merge could be retiring).

// VerifyStore scrubs a closed engine directory and reports its
// findings. A fast scrub checks each run's metadata checksum, file
// geometry, and stored Merkle root; a full scrub additionally walks
// every entry, rebuilds every Merkle node, and proves learned-index
// coverage (see run.Verify). notes carries non-fatal observations
// (orphan files a reopen would sweep); err is operational only — a
// corrupt store is reported through findings, not err.
func VerifyStore(fsys vfs.FS, dir string, fast bool) (findings []run.Finding, notes []string, err error) {
	fsys = vfs.OrOS(fsys)
	manifestPath := filepath.Join(dir, "MANIFEST")
	raw, rerr := fsys.ReadFile(manifestPath)
	if errors.Is(rerr, iofs.ErrNotExist) {
		if _, serr := fsys.Stat(dir); serr != nil {
			return nil, nil, fmt.Errorf("core: %s is not a store directory", dir)
		}
		return nil, []string{"no manifest: fresh (never-cascaded) store"}, nil
	}
	if rerr != nil {
		return nil, nil, rerr
	}
	var m manifest
	if uerr := json.Unmarshal(raw, &m); uerr != nil {
		return []run.Finding{{File: manifestPath, Page: -1,
			Detail: fmt.Sprintf("manifest does not parse: %v", uerr)}}, nil, nil
	}
	if m.SizeRatio < 2 || m.Fanout < 2 {
		findings = append(findings, run.Finding{File: manifestPath, Page: -1,
			Detail: fmt.Sprintf("manifest parameters T=%d m=%d out of range", m.SizeRatio, m.Fanout)})
	}

	referenced := make(map[string]bool)
	var ids []uint64
	seen := make(map[uint64]bool)
	for li, ls := range m.Levels {
		for g := 0; g < 2; g++ {
			for _, id := range ls.Groups[g] {
				if seen[id] {
					findings = append(findings, run.Finding{File: manifestPath, Page: -1,
						Detail: fmt.Sprintf("run %d referenced twice (level %d)", id, li+1)})
					continue
				}
				seen[id] = true
				ids = append(ids, id)
				for _, f := range run.Files(id) {
					referenced[f] = true
				}
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		findings = append(findings, run.Verify(dir, id, run.Params{Fanout: m.Fanout, FS: fsys}, fast)...)
	}

	entries, rderr := fsys.ReadDir(dir)
	if rderr != nil {
		return findings, notes, rderr
	}
	for _, de := range entries {
		name := de.Name()
		if !strings.HasPrefix(name, "run-") || de.IsDir() {
			continue
		}
		if !referenced[name] {
			notes = append(notes, fmt.Sprintf("orphan file %s (a reopen sweeps it)", name))
		}
	}
	return findings, notes, nil
}
