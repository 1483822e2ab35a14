package experiment

// Streaming, mergeable analysis accumulators. Each accumulator absorbs
// one finished cell's testbed (the ddos and caching ones also fold its
// authoritative tap while it runs, foldAuth) and merges with its
// siblings; finalize renders the familiar result structs. Every
// summarized sample is integer-valued (RTTs in whole milliseconds,
// per-probe counts), so the stats.Counts multisets summarize exactly. Merges are order-independent
// (integer sums and multiset unions), which is what makes a K-shard run
// byte-identical to the 1-shard run over the same cells.

import (
	"slices"
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

	table4 Table4Row
	// answers, classes and authQueries are the per-round figures, rounds+1
	// bins at the probe interval (the last is the overflow bin).
	answers     *timeline.Timeline // columns: the ans* enum
	classes     *timeline.Timeline // columns: classify.Category
	authQueries *timeline.Timeline // columns: authLabel's bins
	latency     []*stats.Counts    // rounds+1: per-round RTTs + overflow bin
	uniqueRn    []int              // per-round distinct resolver addresses
	rnPerProbe  []*stats.Counts    // per-round distinct-Rn-per-probe samples
	queriesPP   []*stats.Counts    // per-round AAAA-queries-per-probe samples
	auth        authRound          // the round foldAuth is folding
	// drill is the Table 7 drill-down of the busiest probe folded so far
	// and drillN that probe's AAAA arrival count (drillExperiment only).
	drill  *Table7
	drillN int
}

func newDDoSAccum(spec DDoSSpec, start time.Time, rounds int) *ddosAccum {
	ac := &ddosAccum{
		spec:        spec,
		rounds:      rounds,
		table4:      Table4Row{Spec: spec},
		answers:     timeline.New(start, spec.ProbeInterval, rounds+1, answerLabels),
		classes:     timeline.New(start, spec.ProbeInterval, rounds+1, categoryNames),
		authQueries: timeline.New(start, spec.ProbeInterval, rounds+1, authLabelNames[:]),
		latency:     make([]*stats.Counts, rounds+1),
		uniqueRn:    make([]int, rounds),
		rnPerProbe:  make([]*stats.Counts, rounds),
		queriesPP:   make([]*stats.Counts, rounds),
		auth:        authRound{cur: -1},
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
	for _, p := range tb.Fleet.Probes {
		ac.tallyAnswers(p.Answers())
	}

	// Per-VP classification (Figure 7). EachVP visits VPs in key order:
	// the tallies are order-independent, but the trace's classify section
	// must come out in the same order on every run.
	tb.Fleet.EachVP(func(p *vantage.Probe, rec netsim.Addr, answers []vantage.Answer) {
		tracker := classify.NewTracker()
		for _, a := range answers {
			if !a.Ok() {
				continue
			}
			out := tracker.Classify(a, tb.SerialAt(a.SentAt()))
			cat := out.Category
			if cat == classify.Warmup {
				cat = classify.AA
			}
			ac.classes.AddBin(clampRound(int(a.Round), ac.rounds), int(cat), 1)
			if tr := tb.Net.Trace(); tr != nil {
				// Classification happens after the simulation finishes, so
				// these events form a trailing annotation section whose
				// timestamps rewind to each answer's send time (EmitAt).
				tr.EmitAt(trace.Event{
					At: a.SentAt().Sub(tb.Start), Type: trace.EvClassify,
					Probe: p.ID, A: uint32(clampRound(int(a.Round), ac.rounds)),
					B: uint32(out.Category), Src: string(rec),
				})
			}
		}
	})

	ac.flushAuth()
	ac.auth = authRound{cur: -1} // the scratch is dead once the cell is folded
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
		r := clampRound(int(a.Round), ac.rounds)
		switch a.Outcome {
		case vantage.Timeout:
			ac.answers.AddBin(r, ansNoAnswer, 1)
		case vantage.Valid:
			ac.table4.TotalAnswers++
			ac.table4.ValidAnswers++
			probeOK = true
			ac.answers.AddBin(r, ansOK, 1)
			ac.latency[r].Observe(a.RTT.Milliseconds())
		default:
			ac.table4.TotalAnswers++
			ac.answers.AddBin(r, ansServFail, 1)
			ac.latency[r].Observe(a.RTT.Milliseconds())
		}
	}
	if probeOK {
		ac.table4.ProbesValid++
	}
}

// The bins of Figure 10's authoritative-side query mix, indexed by
// authLabel's result.
const (
	labelNS = iota
	labelANS
	labelAAAANS
	labelPID
	labelOther
	nLabels
)

var authLabelNames = [nLabels]string{"NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID", "other"}

// authLabel labels one query by its name's kind (Testbed.authKinds) and
// its type.
func authLabel(kind uint8, qt dnswire.Type) int {
	switch {
	case kind == domainName && qt == dnswire.TypeNS:
		return labelNS
	case kind == nsHostName && qt == dnswire.TypeA:
		return labelANS
	case kind == nsHostName && qt == dnswire.TypeAAAA:
		return labelAAAANS
	case qt == dnswire.TypeAAAA:
		return labelPID
	}
	return labelOther
}

// authRound is foldAuth's state between arrivals: the round being folded
// (-1 before the first), a round stamp per source, and the round's
// label counts and AAAA-for-PID (name, source) pairs.
type authRound struct {
	cur    int
	seenIn []int32  // round+1 a source was last counted in, by source index
	pairs  []uint64 // QName<<32 | Src
	labels [nLabels]int
}

// foldAuth is the cell's tap fold for the Figures 10–12 tallies. The tap
// hands arrivals over in order, so rounds arrive one after another: a
// round stamp per source counts distinct Rn, and a round's pairs, sorted
// at its flush, give each probe name's query and distinct-Rn counts. Each
// cell's resolvers and probe names are its own, so per-cell distinct
// counts add without any cross-cell set union.
func (ac *ddosAccum) foldAuth(tb *Testbed, ev AuthEvent) {
	r := ac.authQueries.BinOf(tb.Start.Add(ev.At))
	if r < 0 || r >= ac.rounds {
		return
	}
	f := &ac.auth
	if r != f.cur {
		ac.flushAuth()
		f.cur = r
	}
	if n := int(ev.Src) + 1; n > len(f.seenIn) {
		f.seenIn = append(f.seenIn, make([]int32, n-len(f.seenIn))...)
	}
	if f.seenIn[ev.Src] != int32(r+1) {
		f.seenIn[ev.Src] = int32(r + 1)
		ac.uniqueRn[r]++
	}
	l := authLabel(tb.authKinds[ev.QName], ev.QType)
	f.labels[l]++
	if l == labelPID {
		f.pairs = append(f.pairs, uint64(ev.QName)<<32|uint64(ev.Src))
	}
}

// flushAuth adds the round being folded to the tallies: when the next
// round starts, and once at the horizon (absorb).
func (ac *ddosAccum) flushAuth() {
	f := &ac.auth
	if f.cur < 0 {
		return
	}
	for l, n := range f.labels {
		ac.authQueries.AddBin(f.cur, l, int64(n))
	}
	f.labels = [nLabels]int{}
	slices.Sort(f.pairs)
	for i := 0; i < len(f.pairs); {
		name, queries, rn := f.pairs[i]>>32, 0, 0
		for ; i < len(f.pairs) && f.pairs[i]>>32 == name; i++ {
			if queries == 0 || f.pairs[i] != f.pairs[i-1] {
				rn++
			}
			queries++
		}
		ac.rnPerProbe[f.cur].Observe(int64(rn))
		ac.queriesPP[f.cur].Observe(int64(queries))
	}
	f.pairs = f.pairs[:0]
}

// merge folds another accumulator (over disjoint probe cells) into ac.
// Every tally is an integer sum or a multiset union, so the merge is
// commutative and associative — fold order cannot change them. Table 7
// goes to the larger count, a tie to ac: runCells folds in cell-index
// order, so a tie keeps the earlier cell.
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
	if o.drill != nil && (ac.drill == nil || o.drillN > ac.drillN) {
		ac.drill, ac.drillN = o.drill, o.drillN
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
		Table7:      ac.drill,
	}
	for r := 0; r <= ac.rounds; r++ {
		res.Latency = append(res.Latency, ac.latency[r].Summary())
	}
	for r := 0; r < ac.rounds; r++ {
		res.UniqueRn = append(res.UniqueRn, ac.uniqueRn[r])
		res.RnPerProbe = append(res.RnPerProbe, ac.rnPerProbe[r].Summary())
		res.QueriesPerProbe = append(res.QueriesPerProbe, ac.queriesPP[r].Summary())
	}
	return res
}

// cachingAccum accumulates one §3 caching run's tallies.
type cachingAccum struct {
	cfg    CachingConfig
	table1 Table1
	table2 classify.Table2
	table3 Table3
	fig13  *timeline.Timeline // columns: classify.Category
	// fetchers is the cell's set of (name, rotation round) keys a Google
	// backend fetched from the authoritatives, filled by foldAuth.
	fetchers map[fetcherKey]struct{}
}

func newCachingAccum(cfg CachingConfig, start time.Time) *cachingAccum {
	return &cachingAccum{
		cfg:    cfg,
		table1: Table1{TTL: cfg.TTL},
		fig13:  timeline.New(start, cfg.ProbeInterval, int(cfg.horizon()/cfg.ProbeInterval)+1, categoryNames),
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
			if a.Outcome == vantage.Timeout {
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

	tb.Fleet.EachVP(func(p *vantage.Probe, rec netsim.Addr, list []vantage.Answer) {
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
			out := tracker.Classify(a, tb.SerialAt(a.SentAt()))
			ac.table2.Add(out)
			ac.fig13.Add(a.SentAt(), int(out.Category), 1)
			if out.Category == classify.AC {
				ac.absorbTable3(tb, p, rec, a)
			}
		}
	})
	ac.fetchers = nil
}

// foldAuth is the cell's tap fold for Table 3's Rn attribution: it keeps
// the (probe name, zone round) keys a Google backend fetched, the one
// question Table 3 asks of the tap.
func (ac *cachingAccum) foldAuth(tb *Testbed, ev AuthEvent) {
	if ev.QType == dnswire.TypeAAAA && !ev.Dropped && tb.Pop.IsGoogleRn(tb.AuthSrc(ev)) {
		if ac.fetchers == nil {
			ac.fetchers = make(map[fetcherKey]struct{})
		}
		ac.fetchers[fetcherKey{qname: ev.QName, round: rotationRound(ev.At)}] = struct{}{}
	}
}

// absorbTable3 attributes one AC answer, probe p's via rec, to its entry
// path.
func (ac *cachingAccum) absorbTable3(tb *Testbed, p *vantage.Probe, rec netsim.Addr, a vantage.Answer) {
	ac.table3.ACAnswers++
	meta := tb.Pop.R1Meta[rec]
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
	viaGoogle := false
	if qname, ok := tb.authNames.idx[p.QName()]; ok {
		_, viaGoogle = ac.fetchers[fetcherKey{qname: qname, round: rotationRound(a.SentAt().Sub(tb.Start))}]
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
