package experiment

// The campaign runner: execute a list of compiled scenario runs (usually
// produced by internal/spec from declarative JSON files) across
// internal/parallel with context cancellation, and render one
// consolidated cross-scenario report. Per-run failures are captured in
// the results and surfaced in the report — a campaign never silently
// drops a run.
//
// Determinism contract: RenderCampaign, CampaignCSV and CampaignFiles
// iterate results in item order and every per-family renderer is
// deterministic, so the output is byte-identical for any Workers/Shards.

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/classify"
	"repro/internal/parallel"
)

// CampaignItem is one compiled run of a campaign.
type CampaignItem struct {
	// Name labels the run in the report (unique within the campaign;
	// spec expansion derives it from the spec name plus axis suffixes).
	Name string
	// Source is the spec file the item came from ("" when assembled in
	// code).
	Source   string
	Scenario Scenario
	Config   RunConfig
}

// CampaignResult pairs one item with what running it produced. Err is
// non-nil when the run failed or was cancelled; Outcome may still carry
// partial results in that case.
type CampaignResult struct {
	Item    CampaignItem
	Outcome *Outcome
	Err     error
}

// RunCampaign executes every item, at most workers runs in flight at
// once (<= 0 means one per core). Per-run errors land in the matching
// CampaignResult; the returned error is non-nil only when ctx was
// cancelled (wrapped ErrCancelled), with the results of the finished
// runs still filled in.
func RunCampaign(ctx context.Context, items []CampaignItem, workers int) ([]CampaignResult, error) {
	results := make([]CampaignResult, len(items))
	for i := range items {
		results[i].Item = items[i]
	}
	runErr := parallel.ForEachCtx(ctx, workers, len(items), func(i int) {
		results[i].Outcome, results[i].Err = Run(ctx, items[i].Scenario, items[i].Config)
	})
	if runErr != nil {
		return results, cancelErr(runErr)
	}
	return results, nil
}

// ratio is num/den, and 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den > 0 {
		return num / den
	}
	return 0
}

// status is the summary-table verdict of one run.
func (r CampaignResult) status() string {
	switch {
	case r.Err != nil:
		return "ERROR: " + r.Err.Error()
	case r.Outcome == nil:
		return "skipped"
	default:
		return "ok"
	}
}

// headline is the one-line takeaway of one run.
func (r CampaignResult) headline() string {
	o := r.Outcome
	if o == nil {
		return "-"
	}
	switch {
	case o.DDoS != nil:
		t := o.DDoS.Table4
		return fmt.Sprintf("valid answers %d/%d", t.ValidAnswers, t.TotalAnswers)
	case o.Caching != nil:
		return fmt.Sprintf("miss rate %.1f%%", 100*o.Caching.MissRate)
	case o.Glue != nil:
		return fmt.Sprintf("child-TTL share %.1f%%", 100*o.Glue.NS.AuthoritativeShare())
	case o.NXNS != nil:
		amp, width := 0.0, 0
		for _, row := range o.NXNS.Rows {
			if a := row.Amplification(); a > amp {
				amp, width = a, row.Width
			}
		}
		return fmt.Sprintf("max amplification %.1fx at width %d", amp, width)
	case o.Poison != nil:
		return fmt.Sprintf("hijacked %.1f%%", 100*o.Poison.SuccessRate())
	case o.Reflect != nil:
		amp := 0.0
		for _, row := range o.Reflect.Rows {
			if a := row.Amplification(); a > amp {
				amp = a
			}
		}
		return fmt.Sprintf("max amplification %.1fx", amp)
	case o.Transport != nil:
		var q, a int64
		for _, row := range o.Transport.Rows {
			q += row.Queries
			a += row.Answered
		}
		return fmt.Sprintf("answered %.1f%%", 100*ratio(float64(a), float64(q)))
	case o.Passive != nil:
		return fmt.Sprintf("at-TTL re-queries %.1f%%", 100*o.Passive.FracAtTTL)
	case o.Retries != nil:
		up, down := 0.0, 0.0
		for _, row := range o.Retries.Rows {
			if row.Down {
				down += row.total()
			} else {
				up += row.total()
			}
		}
		return fmt.Sprintf("retry amplification %.1fx", ratio(down, up))
	case o.Implications != nil:
		return fmt.Sprintf("fail under attack: root %.1f%% vs cdn %.1f%%",
			100*o.Implications.RootFailDuringAttack(), 100*o.Implications.CDNFailDuringAttack())
	}
	return "-"
}

// RenderCampaign formats the consolidated cross-scenario report: one
// block per run (the family's paper figures), the cross-run tables the
// paper prints over several runs at once (Tables 1-3 over the caching
// runs, Table 4 over the attack matrix, the poisoning matrix), and a
// summary table with per-run status — including errors.
func RenderCampaign(results []CampaignResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d run(s)\n", len(results))

	for i, r := range results {
		fmt.Fprintf(&b, "\n---- run %d/%d: %s (%s) ----\n",
			i+1, len(results), r.Item.Name, r.Item.Scenario.Name())
		if r.Err != nil {
			fmt.Fprintf(&b, "ERROR: %v\n", r.Err)
			continue
		}
		if r.Outcome == nil {
			fmt.Fprintf(&b, "skipped\n")
			continue
		}
		renderRunBlock(&b, r)
	}

	renderConsolidated(&b, results)

	fmt.Fprintf(&b, "\n---- campaign summary ----\n")
	fmt.Fprintf(&b, "%-34s %-14s %-34s %s\n", "run", "scenario", "headline", "status")
	for _, r := range results {
		fmt.Fprintf(&b, "%-34s %-14s %-34s %s\n",
			r.Item.Name, r.Item.Scenario.Name(), r.headline(), r.status())
	}
	return b.String()
}

// renderRunBlock prints one run's own figures/tables, then its timeline
// when it collected one (before an attack run's Table 7).
func renderRunBlock(b *strings.Builder, r CampaignResult) {
	o := r.Outcome
	switch {
	case o.DDoS != nil:
		renderDDoSBlock(b, o.DDoS)
	case o.Caching != nil:
		fmt.Fprintf(b, "miss rate: %.1f%%\n", 100*o.Caching.MissRate)
		fmt.Fprintf(b, "answer types over time (Figure 13 shape)\n%s",
			o.Caching.Fig13.RoundTable(fig13Cols...))
	case o.Glue != nil:
		fmt.Fprint(b, RenderTable5(o.Glue))
	case o.NXNS != nil:
		fmt.Fprint(b, RenderNXNS(o.NXNS))
	case o.Poison != nil:
		// Rendered consolidated: the poisoning table is a matrix over the
		// campaign's poison runs.
		fmt.Fprintf(b, "hijacked %d/%d attempts (see consolidated poisoning matrix)\n",
			o.Poison.Hijacked, o.Poison.Attempts)
	case o.Reflect != nil:
		fmt.Fprint(b, RenderReflect(o.Reflect))
	case o.Transport != nil:
		fmt.Fprint(b, RenderTransport(o.Transport))
	case o.Passive != nil:
		fmt.Fprint(b, RenderPassive(o.Passive))
	case o.Retries != nil:
		fmt.Fprint(b, RenderRetries(o.Retries))
	case o.Implications != nil:
		fmt.Fprint(b, RenderImplications(o.Implications))
	}
	if tl := o.Timeline; tl != nil {
		name := r.Item.Name
		if o.DDoS != nil {
			name = "exp " + o.DDoS.Spec.Name
		}
		fmt.Fprintf(b, "Timeline (%s): per-%s series\n%s%s", name, tl.Bucket, tl.Table(), tl.Sparkline())
	}
	if o.DDoS != nil && o.DDoS.Table7 != nil {
		fmt.Fprintf(b, "Table 7 (exp %s): per-probe drill-down\n%s", o.DDoS.Spec.Name, RenderTable7(*o.DDoS.Table7))
	}
}

// Column orders of the per-round figures, shared by the report and the
// CSV export. Figure 10 draws every bin but "other".
var (
	answerCols = []int{ansOK, ansServFail, ansNoAnswer}
	classCols  = []int{int(classify.AA), int(classify.CC), int(classify.CA), int(classify.AC)}
	fig13Cols  = []int{int(classify.AA), int(classify.CC), int(classify.AC), int(classify.CA), int(classify.Warmup)}
	authCols   = []int{labelNS, labelANS, labelAAAANS, labelPID}
)

// renderDDoSBlock prints one attack run's per-round figure set.
func renderDDoSBlock(b *strings.Builder, res *DDoSResult) {
	name := res.Spec.Name
	fmt.Fprintf(b, "Figure 6/8/14 (exp %s): answers per round\n%s", name,
		res.Answers.RoundTable(answerCols...))
	fmt.Fprintf(b, "Figure 9/15 (exp %s): latency quantiles\n%s", name, RenderLatency(res))
	fmt.Fprintf(b, "Figure 7 (exp %s): answer classes\n%s", name,
		res.Classes.RoundTable(classCols...))
	fmt.Fprintf(b, "Figure 10 (exp %s): queries at the authoritatives\n%s", name,
		res.AuthQueries.RoundTable(authCols...))
	fmt.Fprintf(b, "Figure 11 (exp %s): per-probe amplification\n%s", name,
		RenderAmplification(res))
	fmt.Fprintf(b, "Figure 12 (exp %s): unique Rn\n%s", name, RenderUniqueRn(res))
}

// renderConsolidated prints the cross-run tables.
func renderConsolidated(b *strings.Builder, results []CampaignResult) {
	var caching []*CachingResult
	var attacks []*DDoSResult
	var poisons []*PoisonResult
	for _, r := range results {
		if r.Outcome == nil {
			continue
		}
		if r.Outcome.Caching != nil {
			caching = append(caching, r.Outcome.Caching)
		}
		if r.Outcome.DDoS != nil {
			attacks = append(attacks, r.Outcome.DDoS)
		}
		if r.Outcome.Poison != nil {
			poisons = append(poisons, r.Outcome.Poison)
		}
	}
	if len(caching) > 0 {
		fmt.Fprintf(b, "\n---- consolidated: caching runs ----\n")
		fmt.Fprintf(b, "\nTable 1: caching baseline\n%s", RenderTable1(caching))
		fmt.Fprintf(b, "\nTable 2: answer classification\n%s", RenderTable2(caching))
		fmt.Fprintf(b, "\nTable 3: AC answers by public resolver\n%s", RenderTable3(caching))
	}
	if len(attacks) > 0 {
		fmt.Fprintf(b, "\n---- consolidated: attack matrix ----\n")
		fmt.Fprintf(b, "\nTable 4: experiment matrix\n%s", RenderTable4(attacks))
	}
	if len(poisons) > 0 {
		fmt.Fprintf(b, "\n---- consolidated: poisoning matrix ----\n")
		fmt.Fprint(b, RenderPoison(poisons))
	}
}

// CampaignCSV renders the summary table as CSV (one row per run).
func CampaignCSV(results []CampaignResult) string {
	var b strings.Builder
	b.WriteString("run,scenario,headline,status\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%s,%q,%q\n",
			r.Item.Name, r.Item.Scenario.Name(), r.headline(), r.status())
	}
	return b.String()
}

// ExportFile is one named data file of a campaign's figure export.
type ExportFile struct {
	Name  string
	Write func(io.Writer) error
}

// CampaignFiles returns every figure's data as named files (what `dikes
// -csv <dir>` writes): the Figure 6-12 series of each attack run, keyed
// by experiment name, every run's timeline as CSV and JSON (keyed by
// experiment name for an attack run, by run name otherwise), the Figure
// 4/5 ECDFs of a passive run, and campaign_summary.csv.
func CampaignFiles(results []CampaignResult) []ExportFile {
	var files []ExportFile
	add := func(name, content string) {
		files = append(files, ExportFile{name, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}})
	}
	for _, r := range results {
		if r.Outcome == nil {
			continue
		}
		name := r.Item.Name
		if res := r.Outcome.DDoS; res != nil {
			name = "exp" + res.Spec.Name
			add("fig-answers-"+name+".csv", res.Answers.RoundCSV(answerCols...))
			add("fig9-latency-"+name+".csv", LatencyCSV(res))
			add("fig10-authload-"+name+".csv", res.AuthQueries.RoundCSV(authCols...))
			add("fig11-amplification-"+name+".csv", AmplificationCSV(res))
			add("fig12-uniquern-"+name+".csv", UniqueRnCSV(res))
		}
		if tl := r.Outcome.Timeline; tl != nil {
			add("timeline-"+name+".csv", tl.CSV())
			files = append(files, ExportFile{"timeline-" + name + ".json", tl.WriteJSON})
		}
		if p := r.Outcome.Passive; p != nil {
			add("fig4-nl-ecdf.csv", ECDFCSV(p.ECDF, 100))
			add("fig5-root-all.csv", ECDFCSV(p.Root.All, 100))
		}
	}
	add("campaign_summary.csv", CampaignCSV(results))
	return files
}
