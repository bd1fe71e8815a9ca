package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// ResultFile is what a full run writes with -out: the host block, the
// repeated untraced runs (every sample, in execution order) and one
// traced run per workload.
type ResultFile struct {
	Host    Host     `json:"host"`
	Seconds float64  `json:"seconds"`
	Runs    int      `json:"runs"`
	Records []Record `json:"records"`
}

// ReadResultFile loads a -out file.
func ReadResultFile(path string) (*ResultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// Write saves the file as indented JSON.
func (f *ResultFile) Write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Samples returns one workload's untraced readings of a metric, in run
// order.
func (f *ResultFile) Samples(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Records {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// Traced returns a workload's traced record, if any.
func (f *ResultFile) Traced(workload string) *Record {
	for i := range f.Records {
		if r := &f.Records[i]; r.Workload == workload && r.Trace {
			return r
		}
	}
	return nil
}

// PrintSummary writes every end-to-end metric as median, quartiles and
// n, then every per-layer metric of the traced runs.
func (f *ResultFile) PrintSummary(out io.Writer) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tn\t")
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			vals := f.Samples(w, m.Name)
			if len(vals) == 0 {
				continue
			}
			s := Summarize(vals)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", w, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	tw.Flush()
	fmt.Fprintln(out)
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tper-layer metric (traced run)\tunit\tvalue\t")
	for _, w := range Workloads {
		r := f.Traced(w)
		if r == nil {
			continue
		}
		for _, m := range PerLayer {
			if v, ok := r.Metrics[m.Name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t\n", w, m.Name, m.Unit, v.Value)
			}
		}
	}
	tw.Flush()
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Row is one (workload, end-to-end metric) comparison.
type Row struct {
	Workload, Metric, Unit string
	Base, Head             Summary
	Change                 float64 // head vs base median, signed so positive is better
	Wins, Pairs            int     // head beat base in Wins of Pairs same-index runs
	Verdict                string
}

// Compare judges head against base for every end-to-end metric both
// measured. The smallest regression a metric counts is its bound times
// the base median, and at least its absolute floor. A metric whose noise
// (either side's quartile distance) exceeds that is unresolved, unless
// every head run beats every base run. Otherwise head is worse when its
// median is off by more than that; better when it improves by more than
// the base spread and wins at least nine in ten paired runs; unchanged
// else. failed_pct has no relative bound: it is judged on the share of
// all attempted visits that failed over every run, and any rise is worse.
func Compare(base, head *ResultFile) []Row {
	var rows []Row
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			b, h := base.Samples(w, m.Name), head.Samples(w, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			if m.Bound == 0 {
				rows = append(rows, compareTotals(w, m, b, h, base.failedShare(w), head.failedShare(w)))
				continue
			}
			rows = append(rows, compareMetric(w, m, b, h))
		}
	}
	return rows
}

// failedShare is the percentage of all visits a workload's untraced runs
// attempted that failed.
func (f *ResultFile) failedShare(workload string) float64 {
	var attempted, failed int
	for _, r := range f.Records {
		if r.Workload == workload && !r.Trace {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return 100 * float64(failed) / float64(max(attempted, 1))
}

// compareTotals judges a metric without a relative bound on one total
// per side: a median would hide failures confined to a minority of runs.
func compareTotals(workload string, m Metric, b, h []float64, baseTotal, headTotal float64) Row {
	row := Row{Workload: workload, Metric: m.Name, Unit: m.Unit, Base: Summarize(b), Head: Summarize(h), Verdict: Unchanged}
	switch delta := headTotal - baseTotal; {
	case delta > 0:
		row.Verdict = Worse
	case delta < 0:
		row.Verdict = Better
	}
	return row
}

func compareMetric(workload string, m Metric, b, h []float64) Row {
	row := Row{Workload: workload, Metric: m.Name, Unit: m.Unit, Base: Summarize(b), Head: Summarize(h)}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	beats := func(x, y float64) bool { return sign*(x-y) > 0 }
	if len(b) == len(h) {
		row.Pairs = len(b)
		for i := range b {
			if beats(h[i], b[i]) {
				row.Wins++
			}
		}
	}
	delta := row.Head.Median - row.Base.Median
	row.Change = sign * delta / math.Abs(row.Base.Median)
	// The smallest regression the bound counts, and the noise it must
	// stand out from: the wider quartile distance of the two sides.
	threshold := math.Max(m.Bound*math.Abs(row.Base.Median), m.Floor)
	noise := math.Max(row.Base.Q3-row.Base.Q1, row.Head.Q3-row.Head.Q1)
	allBetter := true
	for _, x := range h {
		for _, y := range b {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch {
	case noise > threshold && allBetter:
		row.Verdict = Better
	case noise > threshold:
		row.Verdict = Unresolved
	case math.Abs(delta) > threshold && sign*delta < 0:
		row.Verdict = Worse
	case row.Change > row.Base.RelIQR() && (row.Pairs == 0 || 10*row.Wins >= 9*row.Pairs):
		row.Verdict = Better
	default:
		row.Verdict = Unchanged
	}
	return row
}

// PrintCompare writes the rows as a table.
func PrintCompare(out io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\thead median [q1, q3]\tchange\twins\tverdict")
	for _, r := range rows {
		wins := "-"
		if r.Pairs > 0 {
			wins = fmt.Sprintf("%d/%d", r.Wins, r.Pairs)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", r.Workload, r.Metric, r.Unit,
			fmtSummary(r.Base), fmtSummary(r.Head), 100*r.Change, wins, r.Verdict)
	}
	tw.Flush()
}

func fmtSummary(s Summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

// Failing names the rows that fail a comparison, by verdict: worse, and
// unresolved, where a regression the bound counts could hide in the
// noise.
func Failing(rows []Row) map[string][]string {
	out := make(map[string][]string)
	for _, r := range rows {
		if r.Verdict == Worse || r.Verdict == Unresolved {
			out[r.Verdict] = append(out[r.Verdict], r.Workload+"/"+r.Metric)
		}
	}
	return out
}
