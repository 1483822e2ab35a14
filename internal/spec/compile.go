package spec

import (
	"fmt"

	"repro/internal/ddos"
	"repro/internal/experiment"
	"repro/internal/recursive"
	"repro/internal/timeline"
)

// DefaultSeed is the paper seed used when engine.seed is absent.
const DefaultSeed = 42

// Compile lowers one expanded spec onto the Scenario API: it validates,
// rejects unexpanded sweeps, and returns the scenario plus the engine
// RunConfig to run it under. Compiled configs always select the sharded
// engine (Shards >= 1), whose output is byte-identical at every shard
// count, so the spec fully determines the experiment's bytes.
func Compile(s *Spec) (experiment.Scenario, experiment.RunConfig, error) {
	var zero experiment.RunConfig
	if err := Validate(s); err != nil {
		return nil, zero, err
	}
	if sw := sweeps(s); len(sw) > 0 {
		return nil, zero, fmt.Errorf("spec %q: %s is an unexpanded sweep: call Expand first", s.Name, sw[0].field)
	}
	cfg := runConfig(s.Engine)
	pop, err := population(s)
	if err != nil {
		return nil, zero, err
	}
	cfg.Population = pop
	if o := s.Observability; o != nil && o.Timeline {
		cfg.Timeline = &timeline.Config{Bucket: o.Bucket.D()}
	}

	switch s.Family {
	case "caching":
		if w := s.Workload; w != nil {
			if w.TTL != nil {
				cfg.TTL = uint32(w.TTL.Value())
			}
			cfg.ProbeInterval = w.ProbeInterval.D()
			cfg.Rounds = w.Rounds
		}
		return experiment.CachingScenario(), cfg, nil
	case "ddos":
		sc, err := compileDDoS(s)
		return sc, cfg, err
	case "glue":
		return experiment.GlueScenario(), cfg, nil
	case "passive":
		return experiment.PassiveScenario(), cfg, nil
	case "retries":
		return experiment.RetriesScenario(), cfg, nil
	case "implications":
		return experiment.ImplicationsScenario(), cfg, nil
	case "nxns":
		var es experiment.NXNSSpec
		if a := s.Adversary; a != nil && a.NXNS != nil && a.NXNS.MaxFetch != nil {
			es.MaxFetch = int(a.NXNS.MaxFetch.Value())
		}
		return experiment.NXNSScenario(es), cfg, nil
	case "poison":
		var es experiment.PoisonSpec
		if a := s.Adversary; a != nil && a.Poison != nil {
			p := a.Poison
			if p.RandomIDs != nil {
				es.RandomIDs = p.RandomIDs.Value()
			}
			if p.NoBailiwick != nil {
				es.NoBailiwick = p.NoBailiwick.Value()
			}
		}
		return experiment.PoisonScenario(es), cfg, nil
	case "reflect":
		return experiment.ReflectScenario(), cfg, nil
	case "transport":
		var es experiment.TransportSpec
		if t := s.Transport; t != nil && t.Flood != nil {
			es.Flood = t.Flood.Value()
		}
		return experiment.TransportScenario(es), cfg, nil
	}
	return nil, zero, fmt.Errorf("spec %q: unknown family %q", s.Name, s.Family)
}

// CompileAll expands a spec and compiles every point into campaign
// items (source labels each item with the file it came from).
func CompileAll(s *Spec, source string) ([]experiment.CampaignItem, error) {
	expanded, err := Expand(s)
	if err != nil {
		return nil, err
	}
	items := make([]experiment.CampaignItem, 0, len(expanded))
	for _, sp := range expanded {
		sc, cfg, err := Compile(sp)
		if err != nil {
			return nil, err
		}
		items = append(items, experiment.CampaignItem{
			Name: sp.Name, Source: source, Scenario: sc, Config: cfg,
		})
	}
	return items, nil
}

// runConfig lowers the engine section. Shards 0 becomes 1, the engine's
// own default, spelled out so compiled configs print the same either way.
func runConfig(e *EngineSection) experiment.RunConfig {
	cfg := experiment.RunConfig{Seed: DefaultSeed, Shards: 1}
	if e == nil {
		return cfg
	}
	cfg.Probes = e.Probes
	if e.Seed != nil {
		cfg.Seed = *e.Seed
	}
	if e.Shards > 0 {
		cfg.Shards = e.Shards
	}
	cfg.ShardProbes = e.ShardProbes
	return cfg
}

// population lowers the population section onto PopulationConfig (zero
// value = the calibrated defaults).
func population(s *Spec) (experiment.PopulationConfig, error) {
	var pop experiment.PopulationConfig
	p := s.Population
	if p == nil {
		return pop, nil
	}
	switch p.Harvest {
	case "", "none":
		pop.Harvest = recursive.HarvestNone
	case "aaaa":
		pop.Harvest = recursive.HarvestAAAA
	case "full":
		pop.Harvest = recursive.HarvestFull
	default:
		return pop, fmt.Errorf("spec %q: population.harvest: unknown mode %q", s.Name, p.Harvest)
	}
	pop.ServeStaleDirect = p.ServeStale
	pop.PrefetchDirect = p.Prefetch
	return pop, nil
}

// compileDDoS lowers a ddos spec: a paper name resolves to the committed
// Table 4 row; otherwise the workload plus disruption phases build a
// DDoSSpec with a staged phase plan against every authoritative. A single
// drop phase lowers onto the legacy scalar window (same scheduling,
// simpler display); anything richer becomes a ddos.Phase list.
func compileDDoS(s *Spec) (experiment.Scenario, error) {
	if len(s.Paper) == 1 {
		base, ok := experiment.SpecByName(s.Paper[0])
		if !ok {
			return nil, fmt.Errorf("spec %q: unknown paper experiment %q", s.Name, s.Paper[0])
		}
		return experiment.DDoSScenario(base), nil
	}
	w := s.Workload
	d := experiment.DDoSSpec{
		Name:          s.Name,
		TTL:           uint32(w.TTL.Value()),
		TotalDur:      w.Total.D(),
		ProbeInterval: w.ProbeInterval.D(),
		TargetsAll:    true,
	}
	phases := make([]ddos.Phase, 0, len(s.Disruption))
	for _, ps := range s.Disruption {
		ph := ddos.Phase{Start: ps.Start.D(), Duration: ps.Duration.D()}
		if ps.Loss != nil {
			ph.Intensity = *ps.Loss
		} else {
			ph.Intensity = ddos.Flood{AttackQPS: ps.AttackQPS, CapacityQPS: ps.CapacityQPS}.LossRate()
		}
		switch ps.Mode {
		case "", "drop":
			ph.Mode = ddos.ModeDrop
		case "nxdomain":
			ph.Mode = ddos.ModeNXDomain
		case "servfail":
			ph.Mode = ddos.ModeServFail
		}
		phases = append(phases, ph)
	}

	// Display envelope for Table 4: the attack window spans the phases,
	// the loss column shows the peak intensity.
	first, last := phases[0], phases[len(phases)-1]
	d.DDoSStart = first.Start
	if last.Duration > 0 {
		d.DDoSDur = last.Start + last.Duration - first.Start
	}
	for _, ph := range phases {
		if ph.Intensity > d.Loss {
			d.Loss = ph.Intensity
		}
	}
	if len(phases) == 1 && phases[0].Mode == ddos.ModeDrop {
		// One plain loss window is exactly the legacy schedule; lowering
		// onto the scalar fields keeps the display and the trace stream
		// on the long-standing path.
		return experiment.DDoSScenario(d), nil
	}
	d.Phases = phases
	return experiment.DDoSScenario(d), nil
}
