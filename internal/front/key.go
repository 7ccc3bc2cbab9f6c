package front

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"negfsim/internal/core"
)

// Key is the content address of a simulation: what a run computes, divorced
// from who asked for it and how it was spelled. Two submissions with equal
// Key.ID are the same computation — the front tier runs them once and lets
// every submitter read the one result. Keys are derived from the canonical
// form of the RunConfig (core.RunConfig.Canonical: defaults filled, enum
// case folded, execution-only knobs zeroed) plus the device fingerprint
// (device.Params.Fingerprint), so JSON field order, omitted defaults and
// worker counts never split the cache.
type Key struct {
	// ID is the full content address (hex SHA-256 of the canonical config
	// and the device fingerprint).
	ID string
	// Family is the ID recomputed with the bias forced to zero: the
	// warm-start group. Two keys with equal Family describe the same device
	// under the same solver settings at different bias points, so a cached
	// Σ≷/Π≷ checkpoint from one can seed the other.
	Family string
	// Bias is the canonical config's source-drain bias, used to pick the
	// nearest warm-start candidate within a family.
	Bias float64
}

// KeyOf computes the content-address key of a validated document (the
// front tier validates once, in core.ParseRunConfig at its HTTP submit).
func KeyOf(cfg core.RunConfig) (Key, error) {
	canon := cfg.Canonical()
	id, err := digest(canon)
	if err != nil {
		return Key{}, err
	}
	fam := canon
	fam.Bias = 0
	famID, err := digest(fam)
	if err != nil {
		return Key{}, err
	}
	return Key{ID: id, Family: famID, Bias: canon.Bias}, nil
}

// digest hashes a canonical config: its deterministic JSON encoding (struct
// field order is fixed by the Go type, independent of the submitted JSON's
// spelling) concatenated with the 64-bit device fingerprint.
func digest(c core.RunConfig) (string, error) {
	raw, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("front: hashing run config: %w", err)
	}
	h := sha256.New()
	h.Write(raw)
	var fp [8]byte
	binary.BigEndian.PutUint64(fp[:], c.Device.Fingerprint())
	h.Write(fp[:])
	return hex.EncodeToString(h.Sum(nil)), nil
}
