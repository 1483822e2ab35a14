package experiment

// Streaming, mergeable analysis accumulators. Each accumulator absorbs
// one finished cell's testbed and merges with its siblings; finalize
// renders the familiar result structs. Every summarized sample is
// integer-valued (RTTs in whole milliseconds, per-probe counts), so the
// stats.Counts multisets summarize exactly. Merges are order-independent
// (integer sums and multiset unions), which is what makes a K-shard run
// byte-identical to the 1-shard run over the same cells.

import (
	"time"

	"repro/internal/classify"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/vantage"
)

// ddosAccum accumulates one DDoS experiment's client- and
// authoritative-side tallies.
type ddosAccum struct {
	spec   DDoSSpec
	rounds int

	table4      Table4Row
	answers     *stats.RoundSeries
	classes     *stats.RoundSeries
	authQueries *stats.RoundSeries
	latency     []*stats.Counts    // rounds+1: per-round RTTs + overflow bin
	uniqueRn    []int              // per-round distinct resolver addresses
	rnPerProbe  []*stats.Counts    // per-round distinct-Rn-per-probe samples
	queriesPP   []*stats.Counts    // per-round AAAA-queries-per-probe samples
	tl          *timeline.Timeline // nil unless the run collects a timeline
}

func newDDoSAccum(spec DDoSSpec, start time.Time, rounds int) *ddosAccum {
	ac := &ddosAccum{
		spec:        spec,
		rounds:      rounds,
		table4:      Table4Row{Spec: spec},
		answers:     stats.NewRoundSeries(start, spec.ProbeInterval),
		classes:     stats.NewRoundSeries(start, spec.ProbeInterval),
		authQueries: stats.NewRoundSeries(start, spec.ProbeInterval),
		latency:     make([]*stats.Counts, rounds+1),
		uniqueRn:    make([]int, rounds),
		rnPerProbe:  make([]*stats.Counts, rounds),
		queriesPP:   make([]*stats.Counts, rounds),
	}
	for i := range ac.latency {
		ac.latency[i] = stats.NewCounts()
	}
	for i := 0; i < rounds; i++ {
		ac.rnPerProbe[i] = stats.NewCounts()
		ac.queriesPP[i] = stats.NewCounts()
	}
	return ac
}

// absorb folds one finished testbed into the accumulator.
func (ac *ddosAccum) absorb(tb *Testbed) {
	ac.table4.Probes += len(tb.Pop.Probes)
	ac.table4.VPs += tb.Pop.VPCount()
	tl := tb.Net.Timeline()
	for _, p := range tb.Fleet.Probes {
		ac.tallyAnswers(p.Answers())
		if tl == nil {
			continue
		}
		// Client outcomes are derived VP-side here rather than emitted by
		// the probes: each answer's event time is its arrival (or the
		// moment the stub gave up — RTT is the timeout duration then).
		for _, a := range p.Answers() {
			at := a.SentAt.Add(a.RTT)
			switch {
			case a.Timeout:
				tl.ObserveAt(at, timeline.Failed)
			case a.Ok():
				tl.ObserveAt(at, timeline.Answered)
			default:
				tl.ObserveAt(at, timeline.ServFail)
			}
		}
	}
	if tl != nil {
		t := tl.Finalize()
		if ac.tl == nil {
			ac.tl = t
		} else {
			ac.tl.Merge(t)
		}
	}

	// Per-VP classification (Figure 7). EachVP visits VPs in key order:
	// the tallies are order-independent, but the trace's classify section
	// must come out in the same order on every run.
	tb.Fleet.EachVP(func(k vantage.VPKey, answers []vantage.Answer) {
		tracker := classify.NewTracker()
		for _, a := range answers {
			if !a.Ok() {
				continue
			}
			out := tracker.Classify(a, tb.SerialAt(a.SentAt))
			cat := out.Category
			if cat == classify.Warmup {
				cat = classify.AA
			}
			ac.classes.AddRound(clampRound(a.Round, ac.rounds), cat.String(), 1)
			if tr := tb.Net.Trace(); tr != nil {
				// Classification happens after the simulation finishes, so
				// these events form a trailing annotation section whose
				// timestamps rewind to each answer's send time (EmitAt).
				tr.EmitAt(trace.Event{
					At: a.SentAt.Sub(tb.Start), Type: trace.EvClassify,
					Probe: a.ProbeID, A: uint32(clampRound(a.Round, ac.rounds)),
					B: uint32(out.Category), Src: string(k.Recursive),
				})
			}
		}
	})

	ac.absorbAuthSide(tb)
}

// tallyAnswers fills the Table 4 counts, the per-round outcome series,
// and the per-round latency multisets from one probe's observation log.
// Outcome counts and RTT samples are binned with the same clamped round
// index, and the overflow bin is summarized too, so Latency[r].N always
// matches the answered (OK + SERVFAIL) count of round r — one of the
// report's invariants.
func (ac *ddosAccum) tallyAnswers(answers []vantage.Answer) {
	probeOK := false
	for _, a := range answers {
		ac.table4.Queries++
		r := clampRound(a.Round, ac.rounds)
		switch {
		case a.Timeout:
			ac.answers.AddRound(r, "NoAnswer", 1)
		case a.Ok():
			ac.table4.TotalAnswers++
			ac.table4.ValidAnswers++
			probeOK = true
			ac.answers.AddRound(r, "OK", 1)
			ac.latency[r].Observe(a.RTT.Milliseconds())
		default:
			ac.table4.TotalAnswers++
			ac.answers.AddRound(r, "SERVFAIL", 1)
			ac.latency[r].Observe(a.RTT.Milliseconds())
		}
	}
	if probeOK {
		ac.table4.ProbesValid++
	}
}

// absorbAuthSide derives the Figures 10–12 tallies from the pre-drop tap.
// Distinct-count sets, keyed by the log's indices, live only inside this
// call: each cell's resolvers and probe names are its own, so per-cell
// distinct counts add without any cross-cell set union.
func (ac *ddosAccum) absorbAuthSide(tb *Testbed) {
	nsHosts := make(map[string]bool)
	for i := range tb.AuthAddrs {
		nsHosts["ns"+itoa(i+1)+"."+Domain] = true
	}
	uniqueRn := make([]map[uint32]bool, ac.rounds)
	probeRn := make([]map[uint64]bool, ac.rounds) // QName<<32 | Src
	rnPerProbe := make([]map[uint32]int, ac.rounds)
	queriesPerProbe := make([]map[uint32]int, ac.rounds)
	for i := range uniqueRn {
		uniqueRn[i] = make(map[uint32]bool)
		probeRn[i] = make(map[uint64]bool)
		rnPerProbe[i] = make(map[uint32]int)
		queriesPerProbe[i] = make(map[uint32]int)
	}

	for _, chunk := range tb.AuthLog {
		for _, ev := range chunk {
			r := ac.authQueries.RoundOf(tb.Start.Add(ev.At))
			if r < 0 || r >= ac.rounds {
				continue
			}
			uniqueRn[r][ev.Src] = true
			qname := tb.AuthQName(ev)
			label := ""
			switch {
			case qname == Domain && ev.QType == dnswire.TypeNS:
				label = "NS"
			case nsHosts[qname] && ev.QType == dnswire.TypeA:
				label = "A-for-NS"
			case nsHosts[qname] && ev.QType == dnswire.TypeAAAA:
				label = "AAAA-for-NS"
			case ev.QType == dnswire.TypeAAAA:
				label = "AAAA-for-PID"
				if k := uint64(ev.QName)<<32 | uint64(ev.Src); !probeRn[r][k] {
					probeRn[r][k] = true
					rnPerProbe[r][ev.QName]++
				}
				queriesPerProbe[r][ev.QName]++
			default:
				label = "other"
			}
			ac.authQueries.AddRound(r, label, 1)
		}
	}

	for r := 0; r < ac.rounds; r++ {
		ac.uniqueRn[r] += len(uniqueRn[r])
		for _, n := range rnPerProbe[r] {
			ac.rnPerProbe[r].Observe(int64(n))
		}
		for _, n := range queriesPerProbe[r] {
			ac.queriesPP[r].Observe(int64(n))
		}
	}
}

// merge folds another accumulator (over disjoint probe cells) into ac.
// Every operation is an integer sum or a multiset union, so the merge is
// commutative and associative — fold order cannot change the result.
func (ac *ddosAccum) merge(o *ddosAccum) {
	ac.table4.Probes += o.table4.Probes
	ac.table4.ProbesValid += o.table4.ProbesValid
	ac.table4.VPs += o.table4.VPs
	ac.table4.Queries += o.table4.Queries
	ac.table4.TotalAnswers += o.table4.TotalAnswers
	ac.table4.ValidAnswers += o.table4.ValidAnswers
	ac.answers.Merge(o.answers)
	ac.classes.Merge(o.classes)
	ac.authQueries.Merge(o.authQueries)
	for i := range ac.latency {
		ac.latency[i].Merge(o.latency[i])
	}
	for i := 0; i < ac.rounds; i++ {
		ac.uniqueRn[i] += o.uniqueRn[i]
		ac.rnPerProbe[i].Merge(o.rnPerProbe[i])
		ac.queriesPP[i].Merge(o.queriesPP[i])
	}
	if o.tl != nil {
		if ac.tl == nil {
			ac.tl = o.tl
		} else {
			ac.tl.Merge(o.tl)
		}
	}
}

// finalize renders the accumulated tallies as a DDoSResult.
func (ac *ddosAccum) finalize() *DDoSResult {
	res := &DDoSResult{
		Spec:        ac.spec,
		Table4:      ac.table4,
		Answers:     ac.answers,
		Classes:     ac.classes,
		AuthQueries: ac.authQueries,
	}
	for r := 0; r <= ac.rounds; r++ {
		res.Latency = append(res.Latency, ac.latency[r].Summary())
	}
	for r := 0; r < ac.rounds; r++ {
		res.UniqueRn = append(res.UniqueRn, ac.uniqueRn[r])
		res.RnPerProbe = append(res.RnPerProbe, ac.rnPerProbe[r].Summary())
		res.QueriesPerProbe = append(res.QueriesPerProbe, ac.queriesPP[r].Summary())
	}
	if ac.tl != nil {
		ac.tl.Marks = specMarks(ac.spec)
		res.Timeline = ac.tl
	}
	return res
}

// cachingAccum accumulates one §3 caching run's tallies.
type cachingAccum struct {
	cfg    CachingConfig
	table1 Table1
	table2 classify.Table2
	table3 Table3
	fig13  *stats.RoundSeries
}

func newCachingAccum(cfg CachingConfig, start time.Time) *cachingAccum {
	return &cachingAccum{
		cfg:    cfg,
		table1: Table1{TTL: cfg.TTL},
		fig13:  stats.NewRoundSeries(start, cfg.ProbeInterval),
	}
}

// absorb folds one finished testbed into the accumulator.
func (ac *cachingAccum) absorb(tb *Testbed) {
	ac.table1.Probes += tb.Cfg.Probes
	ac.table1.VPs += tb.Pop.VPCount()
	for _, p := range tb.Fleet.Probes {
		probeOK := false
		for _, a := range p.Answers() {
			ac.table1.Queries++
			if a.Timeout {
				continue
			}
			ac.table1.Answers++
			if a.Ok() {
				ac.table1.AnswersValid++
				probeOK = true
			} else {
				ac.table1.AnswersDisc++
			}
		}
		if probeOK {
			ac.table1.ProbesValid++
		}
	}

	// Rn attribution for Table 3: which resolvers fetched each
	// (probe, zone-round) from the authoritatives.
	fetchers := indexFetchers(tb)

	tb.Fleet.EachVP(func(_ vantage.VPKey, list []vantage.Answer) {
		valid := 0
		for _, a := range list {
			if a.Ok() {
				valid++
			}
		}
		if valid == 1 {
			ac.table2.OneAnswerVPs++
			return
		}
		tracker := classify.NewTracker()
		for _, a := range list {
			if !a.Ok() {
				continue
			}
			out := tracker.Classify(a, tb.SerialAt(a.SentAt))
			ac.table2.Add(out)
			ac.fig13.Add(a.SentAt, out.Category.String(), 1)
			if out.Category == classify.AC {
				ac.absorbTable3(tb, a, fetchers)
			}
		}
	})
}

// absorbTable3 attributes one AC answer to its entry path.
func (ac *cachingAccum) absorbTable3(tb *Testbed, a vantage.Answer, fetchers map[fetcherKey][]netsim.Addr) {
	ac.table3.ACAnswers++
	meta := tb.Pop.R1Meta[a.Recursive]
	if meta.Public {
		ac.table3.PublicR1++
		if meta.Google {
			ac.table3.GoogleR1++
		} else {
			ac.table3.OtherPublicR1++
		}
		return
	}
	ac.table3.NonPublicR1++
	// Did the fetch emerge from a Google backend?
	k := fetcherKey{
		qname: vantage.QName(a.ProbeID, Domain),
		round: int(a.SentAt.Sub(tb.Start) / RotationInterval),
	}
	viaGoogle := false
	for _, rn := range fetchers[k] {
		if tb.Pop.IsGoogleRn(rn) {
			viaGoogle = true
			break
		}
	}
	if viaGoogle {
		ac.table3.GoogleRn++
	} else {
		ac.table3.OtherRn++
	}
}

// merge folds another caching accumulator into ac.
func (ac *cachingAccum) merge(o *cachingAccum) {
	ac.table1.Probes += o.table1.Probes
	ac.table1.ProbesValid += o.table1.ProbesValid
	ac.table1.VPs += o.table1.VPs
	ac.table1.Queries += o.table1.Queries
	ac.table1.Answers += o.table1.Answers
	ac.table1.AnswersValid += o.table1.AnswersValid
	ac.table1.AnswersDisc += o.table1.AnswersDisc
	mergeTable2(&ac.table2, o.table2)
	ac.table3.ACAnswers += o.table3.ACAnswers
	ac.table3.PublicR1 += o.table3.PublicR1
	ac.table3.GoogleR1 += o.table3.GoogleR1
	ac.table3.OtherPublicR1 += o.table3.OtherPublicR1
	ac.table3.NonPublicR1 += o.table3.NonPublicR1
	ac.table3.GoogleRn += o.table3.GoogleRn
	ac.table3.OtherRn += o.table3.OtherRn
	ac.fig13.Merge(o.fig13)
}

// finalize renders the accumulated tallies as a CachingResult (without a
// report).
func (ac *cachingAccum) finalize() *CachingResult {
	res := &CachingResult{
		Config: ac.cfg,
		Table1: ac.table1,
		Table2: ac.table2,
		Table3: ac.table3,
		Fig13:  ac.fig13,
	}
	res.Table1.ProbesDisc = res.Table1.Probes - res.Table1.ProbesValid
	res.Table2.AnswersValid = res.Table1.AnswersValid
	res.MissRate = res.Table2.MissRate()
	return res
}

// mergeTable2 adds src's classification counts into dst, field by field.
// AnswersValid is included for completeness but recomputed at finalize.
func mergeTable2(dst *classify.Table2, src classify.Table2) {
	dst.AnswersValid += src.AnswersValid
	dst.OneAnswerVPs += src.OneAnswerVPs
	dst.Warmup += src.Warmup
	dst.Duplicates += src.Duplicates
	dst.WarmupTTLZone += src.WarmupTTLZone
	dst.WarmupTTLAltered += src.WarmupTTLAltered
	dst.AA += src.AA
	dst.CC += src.CC
	dst.CCdec += src.CCdec
	dst.AC += src.AC
	dst.ACTTLZone += src.ACTTLZone
	dst.ACTTLAltered += src.ACTTLAltered
	dst.CA += src.CA
	dst.CAdec += src.CAdec
}

// glueAccum accumulates the Appendix A Table 5 TTL buckets.
type glueAccum struct {
	ns, a Table5
}

func (ac *glueAccum) absorb(g *GlueResult) {
	addTable5(&ac.ns, g.NS)
	addTable5(&ac.a, g.A)
}

func (ac *glueAccum) finalize() *GlueResult {
	return &GlueResult{NS: ac.ns, A: ac.a}
}

func addTable5(dst *Table5, src Table5) {
	dst.Total += src.Total
	dst.AboveParent += src.AboveParent
	dst.ExactParent += src.ExactParent
	dst.Between += src.Between
	dst.ExactChild += src.ExactChild
	dst.BelowChild += src.BelowChild
}
