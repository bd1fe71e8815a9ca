// Command panoptes-report re-analyses stored capture databases: point it
// at the engine.jsonl / native.jsonl files a previous `panoptes -out`
// run produced and it regenerates the figures without re-crawling.
//
// Usage:
//
//	panoptes-report -dir results/
//	panoptes-report -native results/native.jsonl -leaks
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"panoptes/internal/analysis"
	"panoptes/internal/capture"
	"panoptes/internal/hostlist"
	"panoptes/internal/leak"
	"panoptes/internal/profiles"
	"panoptes/internal/report"
)

func main() {
	var (
		dir        = flag.String("dir", "", "directory holding engine.jsonl and native.jsonl")
		enginePath = flag.String("engine", "", "engine flow database (JSONL)")
		nativePath = flag.String("native", "", "native flow database (JSONL)")
	)
	flag.Parse()

	if *dir != "" {
		if *enginePath == "" {
			*enginePath = filepath.Join(*dir, "engine.jsonl")
		}
		if *nativePath == "" {
			*nativePath = filepath.Join(*dir, "native.jsonl")
		}
	}
	if *nativePath == "" {
		fmt.Fprintln(os.Stderr, "panoptes-report: need -dir or -native")
		os.Exit(2)
	}
	if err := run(os.Stdout, *enginePath, *nativePath); err != nil {
		fmt.Fprintf(os.Stderr, "panoptes-report: %v\n", err)
		os.Exit(1)
	}
}

// run loads the databases (enginePath may be empty), replays them
// through a fresh analysis suite and renders the report to w.
func run(w io.Writer, enginePath, nativePath string) error {
	db := capture.NewDB()
	if enginePath != "" {
		if err := loadInto(db.Engine, enginePath); err != nil {
			return err
		}
	}
	if err := loadInto(db.Native, nativePath); err != nil {
		return err
	}

	// Browser names come from the data itself.
	namesSet := map[string]bool{}
	for _, f := range db.Engine.All() {
		namesSet[f.Browser] = true
	}
	for _, f := range db.Native.All() {
		namesSet[f.Browser] = true
	}
	delete(namesSet, "")
	var names, injected []string
	for n := range namesSet {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("no browser-attributed flows found")
	}
	for _, n := range names {
		if p := profiles.ByName(n); p != nil && p.InjectsScript {
			injected = append(injected, n)
		}
	}

	suite := analysis.NewSuite(hostlist.Bundled(), names)
	suite.Replay(db)

	if db.Engine.Len() > 0 {
		report.Fig2(w, suite.Fig2.Rows())
		fmt.Fprintln(w)
		report.Fig4(w, suite.Fig4.Rows())
		fmt.Fprintln(w)
	}
	report.Fig3(w, suite.Fig3.Rows())
	fmt.Fprintln(w)
	report.Table2(w, suite.PII.Matrix(), names)
	fmt.Fprintln(w)
	findings := analysis.CombineInjectedLeaks(suite.LeakNative.Findings(), suite.LeakEngine.Findings(), injected)
	report.Leaks(w, leak.Summarise(findings))
	fmt.Fprintln(w)
	report.DNS(w, suite.DNS.Usage(), names)
	if body, _ := suite.Listing1.Result(); body != "" {
		fmt.Fprintln(w)
		report.Listing1(w, body)
	}
	return nil
}

func loadInto(s *capture.Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.ReadJSONL(f); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}
