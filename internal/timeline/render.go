package timeline

// Text renderers: the per-bucket table and CSV the `dikes timeline`
// subcommand prints, an ASCII sparkline of the answer-rate curve — the
// shape of the paper's Figures 6/8/14, one glyph per bucket — and the
// per-round figure table and CSV (rows up to Rounds, chosen columns).

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table renders the run timeline as an aligned text table, one row per
// bucket with a non-zero count (fully idle buckets are skipped — a
// 190-minute run at 1-minute buckets is mostly empty rows), with the
// marks as in-band annotation lines.
func (t *Timeline) Table() string { return t.table(t.columns(), len(t.Bins), 9, true) }

// RoundTable renders rows [0, Rounds()) of the given columns as an
// aligned text table, one row per probing round: a per-round figure.
func (t *Timeline) RoundTable(cols ...int) string { return t.table(cols, t.Rounds(), 12, false) }

// CSV renders every bucket (including empty ones — downstream plotting
// wants a dense time axis) of every column as comma-separated rows.
func (t *Timeline) CSV() string { return t.csv(t.columns(), len(t.Bins), "%g") }

// RoundCSV renders rows [0, Rounds()) of the given columns as
// comma-separated rows, minutes rounded to whole ones.
func (t *Timeline) RoundCSV(cols ...int) string { return t.csv(cols, t.Rounds(), "%.0f") }

// columns lists every column index, in order.
func (t *Timeline) columns() []int {
	cols := make([]int, len(t.Metrics))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// table writes rows [0, rows) of cols, each column at least minWidth
// wide, skipping all-zero rows when skipIdle is set.
func (t *Timeline) table(cols []int, rows, minWidth int, skipIdle bool) string {
	var b strings.Builder
	widths := make([]int, len(cols))
	fmt.Fprintf(&b, "%8s", "minute")
	for j, c := range cols {
		widths[j] = max(len(t.Metrics[c]), minWidth)
		fmt.Fprintf(&b, " %*s", widths[j], t.Metrics[c])
	}
	b.WriteByte('\n')
	mark := func(m Mark) { fmt.Fprintf(&b, "%8s -- %s (t=%v)\n", "", m.Label, m.At) }
	nextMark := 0
	for i := 0; i < rows; i++ {
		off := time.Duration(i) * t.Bucket
		for ; nextMark < len(t.Marks) && t.Marks[nextMark].At <= off; nextMark++ {
			mark(t.Marks[nextMark])
		}
		if skipIdle && rowEmpty(t.Bins[i]) {
			continue
		}
		fmt.Fprintf(&b, "%8.0f", off.Minutes())
		for j, c := range cols {
			fmt.Fprintf(&b, " %*d", widths[j], t.Bins[i][c])
		}
		b.WriteByte('\n')
	}
	for _, m := range t.Marks[nextMark:] {
		mark(m)
	}
	return b.String()
}

// csv writes rows [0, rows) of cols with a leading minute column in the
// minute format.
func (t *Timeline) csv(cols []int, rows int, minute string) string {
	var b strings.Builder
	b.WriteString("minute")
	for _, c := range cols {
		b.WriteByte(',')
		b.WriteString(t.Metrics[c])
	}
	b.WriteByte('\n')
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, minute, (time.Duration(i) * t.Bucket).Minutes())
		for _, c := range cols {
			fmt.Fprintf(&b, ",%d", t.Bins[i][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteJSON writes the timeline as indented JSON.
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// sparkGlyphs are the eight answer-rate levels, lowest to highest.
var sparkGlyphs = []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// Sparkline renders the answer-rate curve one glyph per bucket ('█' =
// every client query answered, '▁' = none, '.' = an idle bucket), with a
// second line carrying '^' markers under the attack-phase boundaries.
// This is the paper's answer-rate-over-event figure as one terminal row.
func (t *Timeline) Sparkline() string {
	var curve, marks strings.Builder
	markAt := make(map[int]bool, len(t.Marks))
	for _, m := range t.Marks {
		i := int(m.At / t.Bucket)
		if i >= 0 && i < len(t.Bins) {
			markAt[i] = true
		}
	}
	anyMark := false
	for i := range t.Bins {
		rate, ok := t.AnswerRate(i)
		if !ok {
			curve.WriteByte('.')
		} else {
			lvl := int(rate * float64(len(sparkGlyphs)))
			if lvl >= len(sparkGlyphs) {
				lvl = len(sparkGlyphs) - 1
			}
			curve.WriteRune(sparkGlyphs[lvl])
		}
		if markAt[i] {
			marks.WriteByte('^')
			anyMark = true
		} else {
			marks.WriteByte(' ')
		}
	}
	out := "answer rate |" + curve.String() + "|\n"
	if anyMark {
		out += "             " + strings.TrimRight(marks.String(), " ") + "\n"
		for _, m := range t.Marks {
			out += fmt.Sprintf("             ^ t=%v %s\n", m.At, m.Label)
		}
	}
	return out
}
