package pii

import (
	"sort"
	"sync"

	"panoptes/internal/capture"
)

// MatrixAnalyzer builds Table 2 incrementally: each committed native
// flow is scanned as it arrives and its findings folded into
// per-browser attribute sets, so the matrix is available at any point
// of the campaign. Implements pipeline.Analyzer (plus Reset).
type MatrixAnalyzer struct {
	browsers []string

	mu       sync.Mutex
	rows     map[string]bool
	leaked   map[string]map[Attribute]bool
	findings []Finding // arrival order
}

// NewMatrixAnalyzer builds an analyzer producing rows for the given
// browser names (flows of other browsers are ignored).
func NewMatrixAnalyzer(browsers []string) *MatrixAnalyzer {
	a := &MatrixAnalyzer{browsers: browsers}
	a.reset()
	return a
}

func (a *MatrixAnalyzer) reset() {
	a.rows = make(map[string]bool, len(a.browsers))
	a.leaked = make(map[string]map[Attribute]bool, len(a.browsers))
	for _, b := range a.browsers {
		a.rows[b] = true
		a.leaked[b] = make(map[Attribute]bool)
	}
	a.findings = nil
}

// Observe scans one committed flow from the tap stream. Only native
// traffic contributes to Table 2.
func (a *MatrixAnalyzer) Observe(f *capture.Flow) {
	if f.Origin != capture.OriginNative || f.Browser == "" || !a.rows[f.Browser] {
		return
	}
	fs := ScanFlow(f) // regex work happens outside the state lock
	if len(fs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, find := range fs {
		a.leaked[f.Browser][find.Attribute] = true
	}
	a.findings = append(a.findings, fs...)
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
