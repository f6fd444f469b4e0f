package privtree

import (
	"encoding/json"
	"fmt"
	"math"
)

// This file defines the versioned, self-describing wire envelope every
// serializable release travels in:
//
//	{
//	  "privtree_release": 1,
//	  "kind": "spatial" | "sequence" | "hybrid",
//	  "mechanism": "spatial",          // registry name, optional
//	  "epsilon": 0.5,                  // budget the release consumed, optional
//	  "params": { "seed": 7, ... },    // the Params the mechanism ran with
//	  "payload": { ... }               // the kind-specific artifact document
//	}
//
// Spatial releases have a second, binary encoding laid out like the node
// arena (serialize_binary.go), which stores commit and replicas ship;
// JSON stays the interop and debug encoding.
//
// Decode is the single entry point: it dispatches on "kind", and keeps
// loading the legacy per-type v0 documents (a bare SpatialTree,
// SequenceModel, or HybridTree JSON document with no envelope) through
// compat shims, so artifacts archived before the envelope existed remain
// readable. The payload documents themselves are unchanged — an envelope
// wraps exactly the bytes the per-type (Un)MarshalJSON implementations
// produce, so the ε-DP guarantee of the payload carries over verbatim.

// EnvelopeVersion is the wire-envelope version this library writes.
const EnvelopeVersion = 1

// envelopeJSON is the wire form of a Release.
type envelopeJSON struct {
	Version   int             `json:"privtree_release"`
	Kind      ReleaseKind     `json:"kind"`
	Mechanism string          `json:"mechanism,omitempty"`
	Epsilon   float64         `json:"epsilon,omitempty"`
	Params    *Params         `json:"params,omitempty"`
	Payload   json.RawMessage `json:"payload"`
}

// MarshalJSON implements json.Marshaler for Release: the versioned
// envelope around the kind-specific payload document, served from the
// Envelope cache so repeated marshals are bit-identical. Baseline
// releases are in-memory query structures with no wire format and return
// an error.
func (r *Release) MarshalJSON() ([]byte, error) {
	return r.Envelope()
}

// encodeEnvelope builds the envelope bytes; Envelope caches its result.
func (r *Release) encodeEnvelope() ([]byte, error) {
	var payload any
	switch {
	case r.spatial != nil:
		payload = r.spatial
	case r.model != nil:
		payload = r.model
	case r.hybrid != nil:
		payload = r.hybrid
	default:
		return nil, fmt.Errorf("privtree: %s release has no wire format", r.kind)
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	p := r.params
	return json.Marshal(envelopeJSON{
		Version:   EnvelopeVersion,
		Kind:      r.kind,
		Mechanism: r.mechanism,
		Epsilon:   r.epsilon,
		Params:    &p,
		Payload:   blob,
	})
}

// UnmarshalJSON implements json.Unmarshaler for Release via Decode, so
// envelopes (and legacy v0 documents) load with plain json.Unmarshal too.
// The receiver is left untouched on failure. (Fields are copied one by
// one: the receiver's envelope cache is an atomic and must not be copied
// as a value.)
func (r *Release) UnmarshalJSON(data []byte) error {
	dec, err := Decode(data)
	if err != nil {
		return err
	}
	r.kind = dec.kind
	r.mechanism = dec.mechanism
	r.epsilon = dec.epsilon
	r.params = dec.params
	r.spatial, r.model, r.hybrid, r.counter = dec.spatial, dec.model, dec.hybrid, dec.counter
	// Take dec's cache even when it is nil: a reused receiver must not
	// keep serving a PREVIOUS document's envelope bytes.
	r.wire.Store(dec.wire.Load())
	return nil
}

// EnvelopeInfo is the provenance metadata of a serialized release,
// readable without decoding (or validating) the payload — see
// InspectEnvelope.
type EnvelopeInfo struct {
	// Version is the envelope version (0 for legacy bare documents), or
	// for a binary artifact its format version.
	Version int
	// Binary reports a binary arena artifact rather than a JSON document.
	Binary bool
	// Kind is the artifact family the document carries.
	Kind ReleaseKind
	// Mechanism is the producing mechanism's registry name ("" when not
	// recorded).
	Mechanism string
	// Epsilon is the privacy budget the release consumed (0 when not
	// recorded).
	Epsilon float64
	// Seed is the mechanism seed.
	Seed uint64
	// Params are the recorded release parameters.
	Params Params
	// Fingerprint is the release-request identity string (mechanism, ε,
	// params) — the key the Session cache and the artifact store dedup on.
	Fingerprint string
	// PayloadBytes is the size of the (uninspected) payload document, or
	// of a binary artifact's arena section.
	PayloadBytes int
}

// InspectEnvelope reads a serialized release's provenance — kind,
// mechanism, ε, seed, params fingerprint — WITHOUT decoding the payload:
// inspecting a multi-megabyte artifact costs one metadata parse, and a
// payload too corrupt for Decode can still be identified. It accepts
// versioned envelopes, legacy v0 documents (which carry no provenance and
// report Version 0) and binary arena artifacts, whose header it reads
// without touching the arena or its CRC. The provenance fields get the
// same plausibility screening as Decode; the payload gets none.
func InspectEnvelope(data []byte) (*EnvelopeInfo, error) {
	if isBinaryArtifact(data) {
		return inspectBinary(data)
	}
	var probe struct {
		Envelope  *int            `json:"privtree_release"`
		Kind      ReleaseKind     `json:"kind"`
		Mechanism string          `json:"mechanism"`
		Epsilon   float64         `json:"epsilon"`
		Params    *Params         `json:"params"`
		Payload   json.RawMessage `json:"payload"`

		// Legacy v0 discriminator keys.
		Alphabet   *int            `json:"alphabet"`
		Fanout     *int            `json:"fanout"`
		Numeric    json.RawMessage `json:"numeric"`
		Taxonomies json.RawMessage `json:"taxonomies"`
		Root       json.RawMessage `json:"root"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Envelope == nil {
		// Legacy v0: identify the kind from the document shape.
		info := &EnvelopeInfo{Version: 0, PayloadBytes: len(data)}
		switch {
		case probe.Alphabet != nil && probe.Root != nil:
			info.Kind = KindSequence
		case probe.Fanout != nil && probe.Root != nil:
			info.Kind = KindSpatial
		case probe.Numeric != nil || probe.Taxonomies != nil:
			info.Kind = KindHybrid
		default:
			return nil, fmt.Errorf("privtree: not a release document (no envelope and no recognizable v0 shape)")
		}
		return info, nil
	}
	if *probe.Envelope != EnvelopeVersion {
		return nil, fmt.Errorf("privtree: unsupported release envelope version %d", *probe.Envelope)
	}
	if len(probe.Payload) == 0 {
		return nil, fmt.Errorf("privtree: release envelope has no payload")
	}
	info := &EnvelopeInfo{
		Version:      *probe.Envelope,
		Kind:         probe.Kind,
		Mechanism:    probe.Mechanism,
		Epsilon:      probe.Epsilon,
		PayloadBytes: len(probe.Payload),
	}
	if probe.Params != nil {
		info.Params = *probe.Params
	}
	return info.screen()
}

// inspectBinary reads a binary artifact's header; the arena and its CRC
// are left unread.
func inspectBinary(data []byte) (*EnvelopeInfo, error) {
	h, err := readArtifactHeader(data)
	if err != nil {
		return nil, err
	}
	info := &EnvelopeInfo{
		Version:      artifactVersion,
		Binary:       true,
		Kind:         h.kind,
		Mechanism:    h.mechanism,
		Epsilon:      h.epsilon,
		Params:       h.params,
		PayloadBytes: max(len(data)-h.end-4, 0),
	}
	return info.screen()
}

// screen applies InspectEnvelope's provenance screening and fills in the
// derived fields.
func (info *EnvelopeInfo) screen() (*EnvelopeInfo, error) {
	switch info.Kind {
	case KindSpatial, KindSequence, KindHybrid:
	default:
		return nil, fmt.Errorf("privtree: release envelope carries unknown kind %q", info.Kind)
	}
	if err := checkProvenance(info.Kind, info.Mechanism, info.Epsilon, nil); err != nil {
		return nil, err
	}
	info.Seed = info.Params.Seed
	info.Fingerprint = releaseFingerprint(info.Mechanism, info.Epsilon, info.Params)
	return info, nil
}

// checkProvenance validates an envelope's provenance like everything else
// on the wire: ε must be a plausible privacy cost (0 = not recorded), and
// a named mechanism must exist, produce this kind, and — when params is
// non-nil — accept these params: a forged envelope must not smuggle
// provenance no mechanism could have produced.
func checkProvenance(kind ReleaseKind, mechanism string, eps float64, params *Params) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return fmt.Errorf("privtree: release envelope has unusable epsilon %v", eps)
	}
	if mechanism == "" {
		return nil
	}
	spec, ok := mechanismRegistry[mechanism]
	if !ok {
		return fmt.Errorf("privtree: release envelope names unknown mechanism %q", mechanism)
	}
	if spec.kind != kind {
		return fmt.Errorf("privtree: mechanism %q produces %s releases, envelope claims %s", mechanism, spec.kind, kind)
	}
	if params != nil {
		if err := spec.validate(*params); err != nil {
			return fmt.Errorf("privtree: release envelope params: %w", err)
		}
	}
	return nil
}

// Decode loads a serialized release: a binary arena artifact (see
// Release.MarshalBinary), recognized by its magic, a versioned envelope
// (see EnvelopeVersion), or one of the legacy v0 per-type documents, which
// are recognized by their distinguishing keys — "alphabet"+"root"
// (sequence), "fanout"+"root" (spatial), "numeric"/"taxonomies" (hybrid).
// The payload is fully validated by the kind-specific decoder before a
// Release is handed back; a binary artifact gets the same checks as its
// JSON form, plus its CRC and declared node count.
//
// Releases decoded from v0 documents carry no mechanism name and ε = 0:
// the legacy formats never recorded them.
func Decode(data []byte) (*Release, error) {
	if isBinaryArtifact(data) {
		return decodeBinary(data)
	}
	// One parse serves both dispatch and the envelope fields; only the
	// kind-specific payload document is parsed a second time, by its own
	// hardened decoder.
	var probe struct {
		Envelope  *int            `json:"privtree_release"`
		Kind      ReleaseKind     `json:"kind"`
		Mechanism string          `json:"mechanism"`
		Epsilon   float64         `json:"epsilon"`
		Params    *Params         `json:"params"`
		Payload   json.RawMessage `json:"payload"`

		// Legacy v0 discriminator keys.
		Alphabet   *int            `json:"alphabet"`
		Fanout     *int            `json:"fanout"`
		Numeric    json.RawMessage `json:"numeric"`
		Taxonomies json.RawMessage `json:"taxonomies"`
		Root       json.RawMessage `json:"root"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Envelope != nil {
		if *probe.Envelope != EnvelopeVersion {
			return nil, fmt.Errorf("privtree: unsupported release envelope version %d", *probe.Envelope)
		}
		if len(probe.Payload) == 0 {
			return nil, fmt.Errorf("privtree: release envelope has no payload")
		}
		rel := &Release{kind: probe.Kind, mechanism: probe.Mechanism, epsilon: probe.Epsilon}
		if probe.Params != nil {
			rel.params = *probe.Params
		}
		if err := checkProvenance(rel.kind, rel.mechanism, rel.epsilon, &rel.params); err != nil {
			return nil, err
		}
		switch probe.Kind {
		case KindSpatial:
			var t SpatialTree
			if err := json.Unmarshal(probe.Payload, &t); err != nil {
				return nil, err
			}
			rel.spatial = &t
		case KindSequence:
			var m SequenceModel
			if err := json.Unmarshal(probe.Payload, &m); err != nil {
				return nil, err
			}
			rel.model = &m
		case KindHybrid:
			var t HybridTree
			if err := json.Unmarshal(probe.Payload, &t); err != nil {
				return nil, err
			}
			rel.hybrid = &t
		default:
			return nil, fmt.Errorf("privtree: release envelope carries unknown kind %q", probe.Kind)
		}
		return rel, nil
	}
	// Legacy v0 compat shims: a bare per-type document.
	switch {
	case probe.Alphabet != nil && probe.Root != nil:
		var m SequenceModel
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, err
		}
		return &Release{kind: KindSequence, model: &m}, nil
	case probe.Fanout != nil && probe.Root != nil:
		var t SpatialTree
		if err := json.Unmarshal(data, &t); err != nil {
			return nil, err
		}
		return &Release{kind: KindSpatial, spatial: &t}, nil
	case probe.Numeric != nil || probe.Taxonomies != nil:
		var t HybridTree
		if err := json.Unmarshal(data, &t); err != nil {
			return nil, err
		}
		return &Release{kind: KindHybrid, hybrid: &t}, nil
	}
	return nil, fmt.Errorf("privtree: not a release document (no envelope and no recognizable v0 shape)")
}
