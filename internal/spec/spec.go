// Package spec is the declarative scenario-specification layer: a
// versioned JSON document that describes one experiment — family,
// population mix, time-windowed disruption phases, transport and
// adversary knobs, engine settings — and compiles onto the Scenario API
// of internal/experiment. The spec is the single authorable surface over
// every experiment family; the committed examples/specs/ files
// regenerate every paper table through `dikes campaign`.
//
// Pipeline: Parse (strict JSON — unknown fields are errors) →
// Validate (schema and cross-field rules) → Expand (matrix expansion of
// sweep axes into one spec per point) → Compile (one expanded spec →
// experiment.Scenario + experiment.RunConfig). CompileAll chains the
// last two into campaign items.
//
// The engine's results are byte-identical at any shard count, so a spec
// pins the experiment's output bytes regardless of how much hardware
// runs it.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Spec is one scenario-spec document. Optional sections are pointers so
// "absent" is distinguishable from "present with defaults"; which
// sections a family accepts is enforced by Validate.
type Spec struct {
	// Version must equal 1.
	Version int `json:"version"`
	// Name labels the runs this spec produces; sweep expansion appends
	// one axis suffix per swept value ("-ttl60", "-flood50", ...).
	Name string `json:"name"`
	// Family selects the experiment family: caching, ddos, glue, nxns,
	// poison, reflect, transport, passive, retries, implications.
	Family string `json:"family"`
	// Paper, on family ddos, names committed Table 4 experiments ("A"
	// through "I"; a string or a list) instead of spelling out workload
	// and disruption by hand.
	Paper PaperList `json:"paper,omitempty"`

	Engine        *EngineSection        `json:"engine,omitempty"`
	Population    *PopulationSection    `json:"population,omitempty"`
	Workload      *WorkloadSection      `json:"workload,omitempty"`
	Disruption    []PhaseSection        `json:"disruption,omitempty"`
	Transport     *TransportSection     `json:"transport,omitempty"`
	Adversary     *AdversarySection     `json:"adversary,omitempty"`
	Observability *ObservabilitySection `json:"observability,omitempty"`
}

// EngineSection carries the simulation-engine knobs shared by every
// family. Zero values take the engine defaults (1200 probes, seed 42,
// one shard of the default cell size).
type EngineSection struct {
	Probes int `json:"probes,omitempty"`
	// Seed is a pointer so an explicit 0 survives; nil means the paper
	// seed (42).
	Seed        *int64 `json:"seed,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	ShardProbes int    `json:"shard_probes,omitempty"`
}

// PopulationSection tunes the resolver population
// (experiment.PopulationConfig's experiment-relevant subset; the
// calibration fractions stay code-side).
type PopulationSection struct {
	// Harvest is the NS-harvesting mode: "none", "aaaa", or "full".
	Harvest string `json:"harvest,omitempty"`
	// ServeStale and Prefetch arm the §7 mitigations on the direct
	// resolvers (prefetch is the fraction armed).
	ServeStale bool    `json:"serve_stale,omitempty"`
	Prefetch   float64 `json:"prefetch,omitempty"`
}

// WorkloadSection shapes the probing workload.
type WorkloadSection struct {
	// TTL is the zone TTL in seconds; sweepable.
	TTL *Axis `json:"ttl,omitempty"`
	// ProbeInterval and Rounds drive the caching families; Total is the
	// length of a ddos run.
	ProbeInterval Duration `json:"probe_interval,omitempty"`
	Rounds        int      `json:"rounds,omitempty"`
	Total         Duration `json:"total,omitempty"`
}

// PhaseSection is one time-windowed disruption phase of a ddos spec; it
// hits every cachetest.nl authoritative. Exactly one of Loss or AttackQPS
// sets the intensity.
type PhaseSection struct {
	Start Duration `json:"start,omitempty"`
	// Duration 0 means "until the end of the run" and is only legal on
	// the last phase.
	Duration Duration `json:"duration,omitempty"`
	// Loss is the direct drop/forcing probability in [0, 1].
	Loss *float64 `json:"loss,omitempty"`
	// AttackQPS/CapacityQPS describe the flood as load instead; the
	// compiler converts overload into the equivalent loss rate.
	AttackQPS   float64 `json:"attack_qps,omitempty"`
	CapacityQPS float64 `json:"capacity_qps,omitempty"`
	// Mode is the failure mode: "drop" (default), "nxdomain", or
	// "servfail".
	Mode string `json:"mode,omitempty"`
}

// TransportSection drives the DoTCP-fallback family.
type TransportSection struct {
	// Flood is the UDP inbound-loss probability at the authoritatives;
	// sweepable.
	Flood *Axis `json:"flood,omitempty"`
}

// ObservabilitySection arms run-output instrumentation that never
// changes results — currently the per-bucket simulated-time timeline.
type ObservabilitySection struct {
	// Timeline collects the per-bucket answered/failed/stale/... series
	// (see internal/timeline) for every run the spec expands to.
	Timeline bool `json:"timeline,omitempty"`
	// Bucket is the bin width (default "1m", the paper's figure
	// resolution).
	Bucket Duration `json:"bucket,omitempty"`
}

// AdversarySection gathers the adversarial families' knobs; only the
// subsection matching the spec's family may be present.
type AdversarySection struct {
	NXNS   *NXNSSection   `json:"nxns,omitempty"`
	Poison *PoisonSection `json:"poison,omitempty"`
}

// NXNSSection shapes the referral-amplification attack.
type NXNSSection struct {
	// MaxFetch is the max-fetch(k) mitigation; sweepable (the paper's
	// unmitigated-vs-k=5 comparison).
	MaxFetch *Axis `json:"max_fetch,omitempty"`
}

// PoisonSection shapes the off-path poisoning attack.
type PoisonSection struct {
	// RandomIDs and NoBailiwick are sweepable — the committed matrix is
	// their cross product.
	RandomIDs   *BoolAxis `json:"random_ids,omitempty"`
	NoBailiwick *BoolAxis `json:"no_bailiwick,omitempty"`
}

// ---- Leaf JSON types ----

// Duration is a time.Duration that reads and writes Go duration strings
// ("10m", "1h30m") — bare JSON numbers are rejected as ambiguous.
type Duration time.Duration

func (d Duration) D() time.Duration { return time.Duration(d) }

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"10m\", got %.64s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %.64q", s)
	}
	*d = Duration(v)
	return nil
}

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Axis is a numeric spec field that is either a scalar or a sweep
// declaration {"sweep": [v1, v2, ...]}. Expand turns sweeps into
// scalars; Compile rejects any sweep that survives.
type Axis struct {
	value float64
	sweep []float64 // non-nil marks an unexpanded sweep
}

// ScalarAxis returns a scalar axis (used by expansion and tests).
func ScalarAxis(v float64) *Axis { return &Axis{value: v} }

// Value returns the scalar value; only meaningful when !IsSweep.
func (a *Axis) Value() float64 { return a.value }

// IsSweep reports whether the axis is an unexpanded sweep; nil is not.
func (a *Axis) IsSweep() bool { return a != nil && a.sweep != nil }

// Sweep returns the sweep values (nil for a scalar).
func (a *Axis) Sweep() []float64 { return a.sweep }

func (a *Axis) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*a = Axis{value: v}
		return nil
	}
	var obj struct {
		Sweep *[]float64 `json:"sweep"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil || obj.Sweep == nil {
		return fmt.Errorf("axis must be a number or {\"sweep\": [...]}, got %.64s", b)
	}
	*a = Axis{sweep: *obj.Sweep}
	return nil
}

func (a Axis) MarshalJSON() ([]byte, error) {
	if a.sweep != nil {
		return json.Marshal(struct {
			Sweep []float64 `json:"sweep"`
		}{a.sweep})
	}
	return json.Marshal(a.value)
}

// BoolAxis is Axis for boolean knobs (the poisoning matrix axes).
type BoolAxis struct {
	value bool
	sweep []bool
}

// ScalarBoolAxis returns a scalar boolean axis.
func ScalarBoolAxis(v bool) *BoolAxis { return &BoolAxis{value: v} }

func (a *BoolAxis) Value() bool   { return a.value }
func (a *BoolAxis) IsSweep() bool { return a != nil && a.sweep != nil }
func (a *BoolAxis) Sweep() []bool { return a.sweep }

func (a *BoolAxis) UnmarshalJSON(b []byte) error {
	var v bool
	if err := json.Unmarshal(b, &v); err == nil {
		*a = BoolAxis{value: v}
		return nil
	}
	var obj struct {
		Sweep *[]bool `json:"sweep"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil || obj.Sweep == nil {
		return fmt.Errorf("axis must be a bool or {\"sweep\": [...]}, got %.64s", b)
	}
	*a = BoolAxis{sweep: *obj.Sweep}
	return nil
}

func (a BoolAxis) MarshalJSON() ([]byte, error) {
	if a.sweep != nil {
		return json.Marshal(struct {
			Sweep []bool `json:"sweep"`
		}{a.sweep})
	}
	return json.Marshal(a.value)
}

// PaperList is the "paper" field: a single experiment name or a list.
type PaperList []string

func (p *PaperList) UnmarshalJSON(b []byte) error {
	var one string
	if err := json.Unmarshal(b, &one); err == nil {
		*p = PaperList{one}
		return nil
	}
	var many []string
	if err := json.Unmarshal(b, &many); err != nil {
		return fmt.Errorf("paper must be a string or a list of strings, got %.64s", b)
	}
	*p = PaperList(many)
	return nil
}

func (p PaperList) MarshalJSON() ([]byte, error) {
	if len(p) == 1 {
		return json.Marshal(p[0])
	}
	return json.Marshal([]string(p))
}

// ---- Parse ----

// Parse strict-decodes one spec document and validates it. Unknown
// fields anywhere in the document are errors — a typoed knob must never
// silently run the default experiment.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the document")
	}
	if err := Validate(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
