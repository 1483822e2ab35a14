package recursive

// profiles is the one table of named resolver behaviours: the
// implementations and deployment shapes the simulator models, each row
// with its defaults applied. The population, the retries family and
// cmd/recursived all read it (Profile); a row comes out by value, so the
// table itself is never written.
var profiles = [...]struct {
	name string
	cfg  Config
}{
	// default is the direct ISP resolver of §3: a 750 ms first timeout
	// doubling per round (secDNS `timeout`), 7 tries per fetch across
	// servers (`retries` × servers walked), 40 upstream queries per
	// client query (`maxReferrals`), an 8 s client deadline, and the
	// lowest-SRTT server three times in four (`probeTopN`).
	{"default", Config{}.WithDefaults()},
	// bind is BIND 9.10 as Appendix E measures it: no NS-address
	// harvesting and a tighter work budget, ~4x more queries during
	// failure.
	{"bind", Config{WorkBudget: 16}.WithDefaults()},
	// unbound is Unbound 1.5: it chases the nonexistent AAAA records of
	// the nameservers it learns, producing both its higher baseline and
	// its much larger failure amplification.
	{"unbound", Config{Harvest: HarvestAAAA, WorkBudget: 48}.WithDefaults()},
	// farm-balancer is a public farm's uncached frontend (Google- or
	// OpenDNS-like, §3.5): a uniform backend choice and 4 tries before
	// it gives up on a query.
	{"farm-balancer", Config{NoCache: true, ExplorationProb: 1, MaxAttempts: 4}.WithDefaults()},
	// multitier-forwarder is the uncached first tier of a multi-tier
	// deployment (home router, first ISP tier): spread uniformly over a
	// small Rn pool, 6 tries before it gives up (§6.2's fan-out).
	{"multitier-forwarder", Config{NoCache: true, ExplorationProb: 1, MaxAttempts: 6}.WithDefaults()},
}

// Profile returns the named row of the profile table, defaults applied;
// ok is false when there is none. Set a row's deployment fields (hints,
// forwarders, cache caps) on the copy and share it among resolvers.
func Profile(name string) (cfg Config, ok bool) {
	for i := range profiles {
		if profiles[i].name == name {
			return profiles[i].cfg, true
		}
	}
	return Config{}, false
}

// ProfileNames lists the table's names in table order.
func ProfileNames() []string {
	names := make([]string, len(profiles))
	for i := range profiles {
		names[i] = profiles[i].name
	}
	return names
}
