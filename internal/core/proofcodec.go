package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Marshal serializes the proof for transmission to a verifying client.
// A verifier gob-decodes it (the package's tests keep that decoder) and
// runs VerifyProv against the block header's Hstate; nothing in the
// encoding is trusted — every field is re-checked during verification.
func (p *Proof) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("core: encode proof: %w", err)
	}
	return buf.Bytes(), nil
}
