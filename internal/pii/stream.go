package pii

import (
	"sort"
	"sync"

	"panoptes/internal/capture"
)

// MatrixAnalyzer builds Table 2 incrementally: each committed native
// flow is scanned as it arrives and its findings folded into
// per-browser attribute sets, so the matrix is available at any point
// of the campaign. Implements pipeline.BatchAnalyzer (plus Reset).
type MatrixAnalyzer struct {
	browsers []string
	rows     map[string]bool // the browsers reported on; never written after construction

	mu       sync.Mutex
	leaked   map[string]map[Attribute]bool
	findings []Finding // arrival order
}

// NewMatrixAnalyzer builds an analyzer producing rows for the given
// browser names (flows of other browsers are ignored).
func NewMatrixAnalyzer(browsers []string) *MatrixAnalyzer {
	a := &MatrixAnalyzer{browsers: browsers, rows: make(map[string]bool, len(browsers))}
	for _, b := range browsers {
		a.rows[b] = true
	}
	a.reset()
	return a
}

func (a *MatrixAnalyzer) reset() {
	a.leaked = make(map[string]map[Attribute]bool, len(a.browsers))
	for _, b := range a.browsers {
		a.leaked[b] = make(map[Attribute]bool)
	}
	a.findings = nil
}

// Observe scans one committed flow: a batch of one.
func (a *MatrixAnalyzer) Observe(f *capture.Flow) { a.ObserveAll([]*capture.Flow{f}) }

// ObserveAll scans a committed batch; only native traffic of a
// reported browser contributes to Table 2. The scans run before the
// state lock, which is then taken once for the batch's findings.
func (a *MatrixAnalyzer) ObserveAll(fs []*capture.Flow) {
	var found []Finding
	for _, f := range fs {
		if f.Origin != capture.OriginNative || f.Browser == "" || !a.rows[f.Browser] {
			continue
		}
		if r := ScanFlow(f); found == nil {
			found = r // ScanFlow's slice is ours: no copy for the first
		} else {
			found = append(found, r...)
		}
	}
	if len(found) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, find := range found {
		a.leaked[find.Browser][find.Attribute] = true
	}
	a.findings = append(a.findings, found...)
}

// Reset drops all accumulated state.
func (a *MatrixAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reset()
}

// Matrix assembles the current Table 2 (rows appear even when nothing
// leaked).
func (a *MatrixAnalyzer) Matrix() Matrix {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := make(Matrix, len(a.browsers))
	for _, b := range a.browsers {
		row := make(map[Attribute]bool, len(a.leaked[b]))
		for attr := range a.leaked[b] {
			row[attr] = true
		}
		m[b] = row
	}
	return m
}

// Findings returns the findings sorted by flow ID (stable, so flows
// without IDs keep arrival order and findings within a flow keep
// ScanFlow order).
func (a *MatrixAnalyzer) Findings() []Finding {
	a.mu.Lock()
	out := append([]Finding(nil), a.findings...)
	a.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].FlowID < out[j].FlowID })
	return out
}

// Finalize implements pipeline.Analyzer.
func (a *MatrixAnalyzer) Finalize() any { return a.Matrix() }
