package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// paperRow is one number the paper publishes: where (Section) and what
// (Claim), the run and the named reading that measure it here, and the
// value, a point (Lo == Hi) or the paper's own range, in Unit. A "%" or
// "pp" reading is a fraction, printed times 100.
type paperRow struct {
	Section, Claim, Run, Reading string
	Lo, Hi                       float64
	Unit                         string
}

// paperValues holds every number of the paper the campaign measures;
// claims the paper states only in words stay in EXPERIMENTS.md's prose.
var paperValues = []paperRow{
	{"§3 T1", "probes discarded", "caching-ttl3600-20min", "probes disc. ÷ probes", 4.7, 4.7, "%"},
	{"§3 T1", "VPs per probe", "caching-ttl3600-20min", "VPs ÷ probes", 1.68, 1.68, ""},
	{"§3 T1", "answers discarded", "caching-ttl3600-20min", "answers disc. ÷ answers", 0.4, 0.4, "%"},
	{"§3 T2", "miss rate, TTL 60", "caching-ttl60-20min", "miss rate", 0, 0, "%"},
	{"§3 T2", "miss rate, TTL 1800", "caching-ttl1800-20min", "miss rate", 32.6, 32.6, "%"},
	{"§3 T2", "miss rate, TTL 3600", "caching-ttl3600-20min", "miss rate", 32.9, 32.9, "%"},
	{"§3 T2", "miss rate, TTL 86400", "caching-ttl86400-20min", "miss rate", 30.9, 30.9, "%"},
	{"§3 T2", "miss rate, TTL 3600 @ 10 min", "caching-ttl3600-10min", "miss rate", 28.5, 28.5, "%"},
	{"§3 T2", "warm-up TTL altered, TTL ≤ 1 h", "caching-ttl3600-20min", "TTL altered ÷ warm-up", 2, 2, "%"},
	{"§3 T2", "warm-up TTL altered, TTL 1 day", "caching-ttl86400-20min", "TTL altered ÷ warm-up", 30, 30, "%"},
	{"§3 T3", "AC answers via public R1", "caching-ttl3600-20min", "public R1 ÷ AC", 47, 47, "%"},
	{"§3 T3", "public R1 that are Google", "caching-ttl3600-20min", "Google R1 ÷ public R1", 79, 79, "%"},
	{"§3 T3", "non-public misses via Google Rn", "caching-ttl3600-20min", "Google Rn ÷ non-public R1", 9, 9, "%"},
	{"§4 F4", "closely-timed gaps excluded", "passive", "gaps < 10 s ÷ gaps", 28, 28, "%"},
	{"§4 F4", "early re-queriers", "passive", "medians below TTL ÷ recursives", 22, 22, "%"},
	{"§5 F6", "A served, caches fresh", "ddos-A", "served, mean min 10–50", 35, 70, "%"},
	{"§5 F6", "A served, caches expired", "ddos-A", "served, mean min 70–110", 0.2, 0.2, "%"},
	{"§5 F6", "B served, first attack round", "ddos-B", "served, min 60", 50, 50, "%"},
	{"§5 F6", "B served, an hour in", "ddos-B", "served, min 110", 3, 3, "%"},
	{"§5 F6", "C served, 30 min in", "ddos-C", "served, min 90", 2.6, 2.6, "%"},
	{"§5 F8", "E failure increase", "ddos-E", "failed, mean min 60–110 − 10–50", 3.7, 3.7, "pp"},
	{"§5 F8", "F served", "ddos-F", "served, mean min 60–110", 81, 81, "%"},
	{"§5 F8", "G served", "ddos-G", "served, mean min 60–110", 72, 72, "%"},
	{"§5 F8", "H served", "ddos-H", "served, mean min 60–110", 60, 60, "%"},
	{"§5 F8", "I served", "ddos-I", "served, mean min 60–110", 37, 40, "%"},
	{"§5 F9", "H median latency", "ddos-H", "median ms, mean min 60–110", 390, 390, "ms"},
	{"§5 F9", "I median latency", "ddos-I", "median ms, mean min 60–110", 1300, 1300, "ms"},
	{"§6 F10", "legit AAAA-for-PID growth", "ddos-H", "AAAA-for-PID, mean min 60–110 ÷ 10–50", 8.2, 8.2, "×"},
	{"§6 F11", "Rn per probe, median", "ddos-I", "Rn/probe median, mean min 60–110", 2, 4, ""},
	{"§6 F11", "Rn per probe, p90", "ddos-I", "Rn/probe p90, mean min 60–110", 4, 4, ""},
	{"§6 F11", "Rn per probe, max", "ddos-I", "Rn/probe max, max min 60–110", 39, 39, ""},
	{"§6 F11", "AAAA per probe, median", "ddos-I", "AAAA/probe median, mean min 60–110", 7, 7, ""},
	{"§6 F11", "AAAA per probe, p90", "ddos-I", "AAAA/probe p90, mean min 60–110", 18, 18, ""},
	{"§6 F11", "AAAA per probe, max", "ddos-I", "AAAA/probe max, max min 60–110", 286, 286, ""},
	{"§6 F16", "BIND-like queries, servers up", "retries", "bind up, queries/trial", 3, 3, ""},
	{"§6 F16", "BIND-like queries, servers dead", "retries", "bind down, queries/trial", 12, 12, ""},
	{"§6 F16", "Unbound-like queries, servers up", "retries", "unbound up, queries/trial", 5, 8, ""},
	{"§6 F16", "Unbound-like queries, servers dead", "retries", "unbound down, queries/trial", 46, 46, ""},
	{"App A", "answers with the child's TTL", "glue", "child-TTL share, NS", 95, 95, "%"},
	{"§8", "root-like failure under attack", "implications", "root-like failed, attack window", 0, 0, "%"},
}

// readings measure a run off fields its result already carries. An
// attack run is read over a window of minutes: the attack (60–110, A's
// from 10), or the rounds before it after the warm-up at minute 0. The
// retry rows are in newRetryRows' order.
var readings = map[string]func(*Outcome) float64{
	"miss rate":                       func(o *Outcome) float64 { return o.Caching.MissRate },
	"probes disc. ÷ probes":           func(o *Outcome) float64 { return frac(o.Caching.Table1.ProbesDisc, o.Caching.Table1.Probes) },
	"VPs ÷ probes":                    func(o *Outcome) float64 { return frac(o.Caching.Table1.VPs, o.Caching.Table1.Probes) },
	"answers disc. ÷ answers":         func(o *Outcome) float64 { return frac(o.Caching.Table1.AnswersDisc, o.Caching.Table1.Answers) },
	"TTL altered ÷ warm-up":           func(o *Outcome) float64 { return frac(o.Caching.Table2.WarmupTTLAltered, o.Caching.Table2.Warmup) },
	"public R1 ÷ AC":                  func(o *Outcome) float64 { return frac(o.Caching.Table3.PublicR1, o.Caching.Table3.ACAnswers) },
	"Google R1 ÷ public R1":           func(o *Outcome) float64 { return frac(o.Caching.Table3.GoogleR1, o.Caching.Table3.PublicR1) },
	"Google Rn ÷ non-public R1":       func(o *Outcome) float64 { return frac(o.Caching.Table3.GoogleRn, o.Caching.Table3.NonPublicR1) },
	"gaps < 10 s ÷ gaps":              func(o *Outcome) float64 { return o.Passive.ExcludedFrac() },
	"medians below TTL ÷ recursives":  func(o *Outcome) float64 { return o.Passive.FracBelowTTL },
	"served, mean min 10–50":          over(10, 50, false, served),
	"served, mean min 70–110":         over(70, 110, false, served),
	"served, min 60":                  over(60, 60, false, served),
	"served, min 110":                 over(110, 110, false, served),
	"served, min 90":                  over(90, 90, false, served),
	"served, mean min 60–110":         over(60, 110, false, served),
	"failed, mean min 60–110 − 10–50": func(o *Outcome) float64 { return over(60, 110, false, failed)(o) - over(10, 50, false, failed)(o) },
	"median ms, mean min 60–110":      over(60, 110, false, func(r *DDoSResult, i int) float64 { return r.Latency[i].Median }),
	"AAAA-for-PID, mean min 60–110 ÷ 10–50": func(o *Outcome) float64 {
		return over(60, 110, false, pidQueries)(o) / over(10, 50, false, pidQueries)(o)
	},
	"Rn/probe median, mean min 60–110":   over(60, 110, false, func(r *DDoSResult, i int) float64 { return r.RnPerProbe[i].Median }),
	"Rn/probe p90, mean min 60–110":      over(60, 110, false, func(r *DDoSResult, i int) float64 { return r.RnPerProbe[i].P90 }),
	"Rn/probe max, max min 60–110":       over(60, 110, true, func(r *DDoSResult, i int) float64 { return r.RnPerProbe[i].Max }),
	"AAAA/probe median, mean min 60–110": over(60, 110, false, func(r *DDoSResult, i int) float64 { return r.QueriesPerProbe[i].Median }),
	"AAAA/probe p90, mean min 60–110":    over(60, 110, false, func(r *DDoSResult, i int) float64 { return r.QueriesPerProbe[i].P90 }),
	"AAAA/probe max, max min 60–110":     over(60, 110, true, func(r *DDoSResult, i int) float64 { return r.QueriesPerProbe[i].Max }),
	"bind up, queries/trial":             func(o *Outcome) float64 { return o.Retries.Rows[0].total() },
	"bind down, queries/trial":           func(o *Outcome) float64 { return o.Retries.Rows[1].total() },
	"unbound up, queries/trial":          func(o *Outcome) float64 { return o.Retries.Rows[2].total() },
	"unbound down, queries/trial":        func(o *Outcome) float64 { return o.Retries.Rows[3].total() },
	"child-TTL share, NS":                func(o *Outcome) float64 { return o.Glue.NS.AuthoritativeShare() },
	"root-like failed, attack window":    func(o *Outcome) float64 { return o.Implications.RootFailDuringAttack() },
}

func frac(n, d int) float64 { return ratio(float64(n), float64(d)) }

func served(r *DDoSResult, round int) float64 { return 1 - r.FailureRate(round) }

func failed(r *DDoSResult, round int) float64 { return r.FailureRate(round) }

func pidQueries(r *DDoSResult, round int) float64 { return float64(r.AuthQueries.Get(round, labelPID)) }

// over reads an attack run over its rounds from minute from to minute to:
// the mean of f, or with peak its maximum.
func over(from, to int, peak bool, f func(r *DDoSResult, round int) float64) func(*Outcome) float64 {
	return func(o *Outcome) float64 {
		step := int(o.DDoS.Spec.ProbeInterval / time.Minute)
		first, last := from/step, to/step
		var sum, top float64
		for i := first; i <= last; i++ {
			sum, top = sum+f(o.DDoS, i), max(top, f(o.DDoS, i))
		}
		if peak {
			return top
		}
		return sum / float64(last-first+1)
	}
}

// runKey names a run by what it ran, not by its spec's name or position:
// its scenario, and a caching run's TTL and probe interval.
func runKey(r CampaignResult) string {
	if c := r.Outcome.Caching; c != nil {
		return fmt.Sprintf("caching-ttl%d-%dmin", c.Config.TTL, c.Config.ProbeInterval/time.Minute)
	}
	return r.Item.Scenario.Name()
}

// paperError is the one error rule: the distance from v to the paper's
// value [lo, hi], 0 inside a range, and the paper bound nearest v.
func paperError(v, lo, hi float64) (dist, bound float64) {
	switch {
	case v < lo:
		return lo - v, lo
	case v > hi:
		return v - hi, hi
	case v-lo < hi-v:
		return 0, lo
	}
	return 0, hi
}

// Scorecard reads the paper's values off a campaign's results and prints
// each beside its reading, with the absolute error in the row's unit and
// the relative error over the nearest paper bound ("—" when that bound is
// 0). It runs nothing and judges nothing; it returns one line per row
// whose source run is absent, failed or cancelled.
func Scorecard(results []CampaignResult) (table string, notRun []string) {
	runs := map[string]*Outcome{}
	for _, r := range results {
		if r.Err == nil && r.Outcome != nil {
			runs[runKey(r)] = r.Outcome
		}
	}
	var sb strings.Builder
	row := func(cells ...any) {
		sb.WriteString(strings.TrimRight(fmt.Sprintf("%-7s %-34s %-22s %-39s %8s %9s %8s %7s", cells...), " ") + "\n")
	}
	row("§", "claim", "run", "reading", "paper", "measured", "abs err", "rel err")
	for _, p := range paperValues {
		paper := strconv.FormatFloat(p.Lo, 'f', -1, 64)
		_, dec, _ := strings.Cut(paper, ".")
		prec := len(dec) + 1 // a reading prints one decimal finer than the paper
		if p.Hi != p.Lo {
			paper += "–" + strconv.FormatFloat(p.Hi, 'f', -1, 64)
		}
		measured, abs, rel := "not run", "", ""
		if o := runs[p.Run]; o == nil {
			notRun = append(notRun, fmt.Sprintf("not run: %s %s (%s)", p.Section, p.Claim, p.Run))
		} else {
			v := readings[p.Reading](o)
			if p.Unit == "%" || p.Unit == "pp" {
				v *= 100
			}
			dist, bound := paperError(v, p.Lo, p.Hi)
			measured, abs, rel = strconv.FormatFloat(v, 'f', prec, 64)+p.Unit, strconv.FormatFloat(dist, 'f', prec, 64), "—"
			if bound != 0 {
				rel = fmt.Sprintf("%.0f%%", 100*dist/bound)
			}
		}
		row(p.Section, p.Claim, p.Run, p.Reading, paper+p.Unit, measured, abs, rel)
	}
	return sb.String(), notRun
}
