package device

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Spec is a device-zoo entry: a named recipe that produces a simulable
// structure. Every kind emits the same block-tridiagonal operator shapes
// `New` produces, so rgf/sse/core consume zoo devices unchanged.
//
// Implementations are small comparable value types (no pointers, no
// slices): core.RunConfig embeds a SpecConfig and must stay ==-comparable,
// and the front tier relies on value semantics when canonicalizing specs
// for its content-addressed cache.
type Spec interface {
	// Kind returns the registry name used as the JSON "kind" tag.
	Kind() string
	// Validate checks the spec. Error messages name the offending JSON
	// field path (device.<field>) for usable 400 bodies.
	Validate() error
	// Grid returns the simulation grid (energies, momenta, blocks) the
	// built device runs on.
	Grid() Params
	// Build generates the structure.
	Build() (*Device, error)
	// Fingerprint returns the content identity of the built structure:
	// equal fingerprints generate bit-identical devices. Two different
	// kinds never share a fingerprint.
	Fingerprint() uint64
	// Canonical returns the spec with defaults filled and free-form
	// fields folded, so equivalent spellings canonicalize identically.
	// It must be idempotent.
	Canonical() Spec
}

// specDecoders maps the JSON "kind" tag to a strict decoder for the
// concrete spec type.
var specDecoders = map[string]func([]byte) (Spec, error){
	"nanowire": decodeSpec[Nanowire],
	"cnt":      decodeSpec[CNT],
	"chain":    decodeSpec[Chain],
	"gnr":      decodeSpec[GNR],
}

// Kinds returns the registered spec kinds in sorted order.
func Kinds() []string {
	out := make([]string, 0, len(specDecoders))
	for k := range specDecoders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func decodeSpec[T Spec](data []byte) (Spec, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// SpecConfig is the polymorphic "device" section of core.RunConfig. Its
// JSON form is the tagged union {"kind": "nanowire"|"cnt"|"chain"|"gnr",
// ...kind-specific fields}; the legacy flat Params object (no "kind" key)
// is still accepted and means kind "nanowire". The zero value is invalid
// (Validate reports it); construct with WrapParams or WrapSpec.
type SpecConfig struct {
	spec Spec
}

// WrapParams wraps a flat nanowire parameter set.
func WrapParams(p Params) SpecConfig { return SpecConfig{Nanowire{p}} }

// WrapSpec wraps any registered spec.
func WrapSpec(s Spec) SpecConfig { return SpecConfig{s} }

// Spec returns the wrapped spec (nil for the zero value).
func (s SpecConfig) Spec() Spec { return s.spec }

// Kind returns the wrapped spec's kind, or "" for the zero value.
func (s SpecConfig) Kind() string {
	if s.spec == nil {
		return ""
	}
	return s.spec.Kind()
}

// Validate checks the wrapped spec and bounds its grid to a runnable size
// (Params.ValidateSize): a SpecConfig is a document to run, so every kind
// is held to MaxBlockDim and MaxTensorBytes here.
func (s SpecConfig) Validate() error {
	if s.spec == nil {
		return fmt.Errorf("device: missing \"device\" section (expected {\"kind\": %q|...})", "nanowire")
	}
	if err := s.spec.Validate(); err != nil {
		return err
	}
	return s.spec.Grid().ValidateSize()
}

// Grid returns the simulation grid of the wrapped spec (zero Params for
// the zero value, which fails validation downstream rather than panicking).
func (s SpecConfig) Grid() Params {
	if s.spec == nil {
		return Params{}
	}
	return s.spec.Grid()
}

// Build generates the structure.
func (s SpecConfig) Build() (*Device, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.spec.Build()
}

// Fingerprint returns the content identity of the wrapped spec (0 for the
// zero value).
func (s SpecConfig) Fingerprint() uint64 {
	if s.spec == nil {
		return 0
	}
	return s.spec.Fingerprint()
}

// Canonical returns the config with the wrapped spec canonicalized.
func (s SpecConfig) Canonical() SpecConfig {
	if s.spec == nil {
		return s
	}
	return SpecConfig{s.spec.Canonical()}
}

// MarshalJSON emits the tagged form: the spec's own fields with "kind"
// spliced in as the first key (deterministic field order, so digests of
// the canonical JSON are stable).
func (s SpecConfig) MarshalJSON() ([]byte, error) {
	if s.spec == nil {
		return nil, fmt.Errorf("device: cannot marshal empty device spec")
	}
	b, err := json.Marshal(s.spec)
	if err != nil {
		return nil, err
	}
	if len(b) < 2 || b[0] != '{' {
		return nil, fmt.Errorf("device: spec kind %q does not marshal to a JSON object", s.spec.Kind())
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "{\"kind\":%q", s.spec.Kind())
	if !bytes.Equal(b, []byte("{}")) {
		out.WriteByte(',')
	}
	out.Write(b[1:])
	return out.Bytes(), nil
}

// UnmarshalJSON accepts both the tagged union and the legacy flat Params
// object (treated as kind "nanowire"). Unknown fields are rejected in
// either form.
func (s *SpecConfig) UnmarshalJSON(data []byte) error {
	var probe struct {
		Kind *string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("device: invalid device spec: %w", err)
	}
	if probe.Kind == nil {
		// Legacy flat form: the bare Params fields.
		sp, err := decodeSpec[Nanowire](data)
		if err != nil {
			return fmt.Errorf("device: invalid flat device spec (hint: tagged specs need a \"kind\" field): %w", err)
		}
		s.spec = sp
		return nil
	}
	decode, ok := specDecoders[*probe.Kind]
	if !ok {
		return fmt.Errorf("device: device.kind: unknown kind %q (known: %v)", *probe.Kind, Kinds())
	}
	// Strip the discriminator so strict decoding of the concrete type
	// does not see it as an unknown field.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return fmt.Errorf("device: invalid device spec: %w", err)
	}
	delete(fields, "kind")
	rest, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	sp, err := decode(rest)
	if err != nil {
		return fmt.Errorf("device: invalid %q device spec: %w", *probe.Kind, err)
	}
	s.spec = sp
	return nil
}

// Nanowire is the original synthetic nanowire/FinFET family behind the
// flat Params struct, wrapped as a zoo kind. Its fingerprint is the
// legacy Params fingerprint, so cache keys and warm-start families minted
// before the device zoo remain valid.
type Nanowire struct {
	Params
}

// Kind returns "nanowire".
func (n Nanowire) Kind() string { return "nanowire" }

// Grid returns the parameter set itself.
func (n Nanowire) Grid() Params { return n.Params }

// Build generates the synthetic nanowire structure. The device carries
// the zoo kind but keeps FP 0, so its Fingerprint stays the legacy
// Params fingerprint (cache keys minted before the zoo remain valid).
func (n Nanowire) Build() (*Device, error) {
	d, err := New(n.Params)
	if err != nil {
		return nil, err
	}
	d.Kind = "nanowire"
	return d, nil
}

// Canonical returns the spec unchanged (the flat form has no defaults).
func (n Nanowire) Canonical() Spec { return n }

// kindTag folds a kind name into the fingerprint key stream so distinct
// kinds sharing field values never collide.
func kindTag(kind string) uint64 {
	h := uint64(0x6b696e64) // "kind"
	for _, c := range []byte(kind) {
		h = splitmix64(h ^ uint64(c))
	}
	return h
}
