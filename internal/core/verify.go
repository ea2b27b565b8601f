package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"cole/internal/run"
	"cole/internal/types"
	"cole/internal/vfs"
)

// This file is the engine's offline integrity scrub (`coledb fsck`):
// walk a closed engine directory — manifest plus every committed run —
// and report every file whose bytes fail an integrity invariant. The
// directory must not be open in an engine (the scrub reads files that a
// live merge could be retiring).

// VerifyStore scrubs a closed engine directory and reports its
// findings. The manifest goes through the reader Open uses (readManifest):
// if it fails that reader's checks, that is the one finding, since there
// is no trusted run list to scrub. Otherwise a fast scrub checks each
// run's metadata checksum, file geometry, and stored Merkle root; a full
// scrub additionally walks every entry, rebuilds every Merkle node, and
// proves learned-index coverage (see run.Verify). notes carries
// non-fatal observations (orphan files a reopen would sweep); err is
// operational only — a corrupt store is reported through findings, not
// err.
func VerifyStore(fsys vfs.FS, dir string, fast bool) (findings []run.Finding, notes []string, err error) {
	fsys = vfs.OrOS(fsys)
	m, err := readManifest(fsys, dir)
	var ec *types.ErrCorrupt
	if errors.As(err, &ec) {
		return []run.Finding{{File: ec.File, Page: ec.Page, Detail: ec.Detail}}, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	if m == nil {
		if _, serr := fsys.Stat(dir); serr != nil {
			return nil, nil, fmt.Errorf("core: %s is not a store directory", dir)
		}
		return nil, []string{"no manifest: fresh (never-cascaded) store"}, nil
	}

	ids := m.runIDs()
	referenced := make(map[string]bool)
	for _, id := range ids {
		for _, f := range run.Files(id) {
			referenced[f] = true
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
