package spec

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/vantage"
)

// familyRule says which optional sections a family accepts (engine is
// always legal).
type familyRule struct {
	population, workload, disruption, transport, adversary, paper, observability bool
}

var families = map[string]familyRule{
	"caching":      {population: true, workload: true, observability: true},
	"ddos":         {population: true, workload: true, disruption: true, paper: true, observability: true},
	"glue":         {},
	"nxns":         {adversary: true},
	"poison":       {adversary: true},
	"reflect":      {},
	"transport":    {transport: true},
	"passive":      {},
	"retries":      {},
	"implications": {observability: true},
}

// MinBucket is the narrowest timeline bin a spec may ask for: narrower
// bins than the probe smear mean nothing and size the collector by
// horizon/bucket.
const MinBucket = time.Second

var harvestModes = map[string]bool{"": true, "none": true, "aaaa": true, "full": true}
var phaseModes = map[string]bool{"": true, "drop": true, "nxdomain": true, "servfail": true}

// Validate checks one spec document against the schema rules: known
// family, only that family's sections present, well-formed engine and
// phase values, resolvable paper names, and non-overlapping disruption
// windows. Parse calls it; Compile calls it again so hand-built specs
// get the same checks.
func Validate(s *Spec) error {
	if s.Version != Version {
		return fmt.Errorf("spec %q: version must be %d, got %d", s.Name, Version, s.Version)
	}
	if s.Name == "" {
		return fmt.Errorf("spec: name is required")
	}
	rule, ok := families[s.Family]
	if !ok {
		return fmt.Errorf("spec %q: unknown family %q", s.Name, s.Family)
	}
	bad := func(section string) error {
		return fmt.Errorf("spec %q: family %s does not take a %s section", s.Name, s.Family, section)
	}
	switch {
	case s.Population != nil && !rule.population:
		return bad("population")
	case s.Workload != nil && !rule.workload:
		return bad("workload")
	case s.Disruption != nil && !rule.disruption:
		return bad("disruption")
	case s.Transport != nil && !rule.transport:
		return bad("transport")
	case s.Adversary != nil && !rule.adversary:
		return bad("adversary")
	case s.Paper != nil && !rule.paper:
		return bad("paper")
	case s.Observability != nil && !rule.observability:
		return bad("observability")
	}
	if o := s.Observability; o != nil && o.Bucket != 0 && o.Bucket.D() < MinBucket {
		return fmt.Errorf("spec %q: observability.bucket must be 0 (default) or >= %v, got %v", s.Name, MinBucket, o.Bucket.D())
	}
	runs := 1
	for _, sw := range sweeps(s) {
		runs *= sw.n
		switch {
		case sw.n == 0:
			return fmt.Errorf("spec %q: %s: empty sweep", s.Name, sw.field)
		case sw.repeats:
			return fmt.Errorf("spec %q: %s: sweep repeats a value (run names must be unique)", s.Name, sw.field)
		case runs > MaxRuns:
			return fmt.Errorf("spec %q: sweeps expand to more than %d runs", s.Name, MaxRuns)
		}
	}
	if err := validateEngine(s); err != nil {
		return err
	}
	if err := validatePopulation(s); err != nil {
		return err
	}
	if err := validateWorkload(s); err != nil {
		return err
	}
	if err := validateFamily(s); err != nil {
		return err
	}
	return nil
}

func validateEngine(s *Spec) error {
	e := s.Engine
	if e == nil {
		return nil
	}
	switch {
	case e.Probes < 0:
		return fmt.Errorf("spec %q: engine.probes must be >= 0", s.Name)
	case e.Shards < 0:
		return fmt.Errorf("spec %q: engine.shards must be >= 0", s.Name)
	case e.ShardProbes < 0 || e.ShardProbes > experiment.MaxShardProbes:
		return fmt.Errorf("spec %q: engine.shard_probes must be in [0, %d]", s.Name, experiment.MaxShardProbes)
	}
	return nil
}

func validatePopulation(s *Spec) error {
	p := s.Population
	if p == nil {
		return nil
	}
	if !harvestModes[p.Harvest] {
		return fmt.Errorf("spec %q: population.harvest must be \"none\", \"aaaa\", or \"full\", got %q", s.Name, p.Harvest)
	}
	if p.Prefetch < 0 || p.Prefetch > 1 {
		return fmt.Errorf("spec %q: population.prefetch must be in [0, 1]", s.Name)
	}
	return nil
}

func validateWorkload(s *Spec) error {
	w := s.Workload
	if w == nil {
		return nil
	}
	if w.TTL != nil {
		if err := eachAxis(w.TTL, func(v float64) error {
			if v <= 0 || v != float64(int64(v)) || v > 1<<31 {
				return fmt.Errorf("spec %q: workload.ttl values must be positive integer seconds, got %g", s.Name, v)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if w.ProbeInterval < 0 || w.Total < 0 {
		return fmt.Errorf("spec %q: workload durations must be >= 0", s.Name)
	}
	if w.Rounds < 0 {
		return fmt.Errorf("spec %q: workload.rounds must be >= 0", s.Name)
	}
	if w.Rounds > vantage.MaxRounds {
		return fmt.Errorf("spec %q: workload.rounds must be at most %d", s.Name, vantage.MaxRounds)
	}
	return nil
}

// eachAxis applies check to the axis's scalar or every sweep value.
func eachAxis(a *Axis, check func(float64) error) error {
	if a.IsSweep() {
		for _, v := range a.Sweep() {
			if err := check(v); err != nil {
				return err
			}
		}
		return nil
	}
	return check(a.Value())
}

func validateFamily(s *Spec) error {
	switch s.Family {
	case "ddos":
		return validateDDoS(s)
	case "transport":
		return validateTransport(s)
	case "nxns", "poison":
		return validateAdversary(s)
	}
	return nil
}

func validateDDoS(s *Spec) error {
	if len(s.Paper) > 0 {
		if s.Workload != nil || s.Disruption != nil {
			return fmt.Errorf("spec %q: paper is mutually exclusive with workload/disruption", s.Name)
		}
		for _, name := range s.Paper {
			if _, ok := experiment.SpecByName(name); !ok {
				return fmt.Errorf("spec %q: unknown paper experiment %q", s.Name, name)
			}
		}
		return nil
	}
	w := s.Workload
	if w == nil || w.Total <= 0 || w.ProbeInterval <= 0 {
		return fmt.Errorf("spec %q: family ddos needs workload.total and workload.probe_interval (or a paper list)", s.Name)
	}
	if w.Total/w.ProbeInterval > vantage.MaxRounds {
		return fmt.Errorf("spec %q: workload.total is more than %d probe intervals", s.Name, vantage.MaxRounds)
	}
	if w.TTL == nil {
		return fmt.Errorf("spec %q: family ddos needs workload.ttl", s.Name)
	}
	if len(s.Disruption) == 0 {
		return fmt.Errorf("spec %q: family ddos needs at least one disruption phase (or a paper list)", s.Name)
	}
	prevEnd := Duration(0)
	for i, ph := range s.Disruption {
		at := fmt.Sprintf("disruption[%d]", i)
		if ph.Start < 0 {
			return fmt.Errorf("spec %q: %s: start must be >= 0", s.Name, at)
		}
		if ph.Duration < 0 {
			return fmt.Errorf("spec %q: %s: duration must be >= 0", s.Name, at)
		}
		if ph.Duration == 0 && i != len(s.Disruption)-1 {
			return fmt.Errorf("spec %q: %s: duration 0 (open-ended) is only legal on the last phase", s.Name, at)
		}
		hasLoss, hasFlood := ph.Loss != nil, ph.AttackQPS > 0
		if hasLoss == hasFlood {
			return fmt.Errorf("spec %q: %s: exactly one of loss or attack_qps must be set", s.Name, at)
		}
		if hasLoss && (*ph.Loss < 0 || *ph.Loss > 1) {
			return fmt.Errorf("spec %q: %s: loss must be in [0, 1]", s.Name, at)
		}
		if hasFlood && ph.CapacityQPS < 0 {
			return fmt.Errorf("spec %q: %s: capacity_qps must be >= 0", s.Name, at)
		}
		if !phaseModes[ph.Mode] {
			return fmt.Errorf("spec %q: %s: mode must be \"drop\", \"nxdomain\", or \"servfail\", got %q", s.Name, at, ph.Mode)
		}
		if i > 0 && ph.Start < prevEnd {
			return fmt.Errorf("spec %q: %s: overlaps the previous phase (starts %v before %v)", s.Name, at, ph.Start.D(), prevEnd.D())
		}
		prevEnd = ph.Start + ph.Duration
	}
	return nil
}

func validateTransport(s *Spec) error {
	t := s.Transport
	if t == nil || t.Flood == nil {
		return nil
	}
	return eachAxis(t.Flood, func(v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("spec %q: transport.flood values must be in [0, 1], got %g", s.Name, v)
		}
		return nil
	})
}

func validateAdversary(s *Spec) error {
	a := s.Adversary
	if a == nil {
		return nil
	}
	switch s.Family {
	case "nxns":
		if a.Poison != nil {
			return fmt.Errorf("spec %q: family nxns only takes adversary.nxns", s.Name)
		}
		if n := a.NXNS; n != nil && n.MaxFetch != nil {
			return eachAxis(n.MaxFetch, func(v float64) error {
				if v < 0 || v != float64(int64(v)) {
					return fmt.Errorf("spec %q: adversary.nxns.max_fetch values must be non-negative integers, got %g", s.Name, v)
				}
				return nil
			})
		}
	case "poison":
		if a.NXNS != nil {
			return fmt.Errorf("spec %q: family poison only takes adversary.poison", s.Name)
		}
	}
	return nil
}
