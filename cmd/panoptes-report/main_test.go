package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden renders the report over the two committed sample
// databases and compares it byte for byte with the output recorded in
// testdata, so the offline replay path cannot drift from the figures it
// reproduced when the goldens were captured.
func TestReportGolden(t *testing.T) {
	for _, dir := range []string{"results", "results1000"} {
		t.Run(dir, func(t *testing.T) {
			root := filepath.Join("..", "..", dir)
			var out bytes.Buffer
			if err := run(&out,
				filepath.Join(root, "engine.sample.jsonl"),
				filepath.Join(root, "native.sample.jsonl")); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", dir+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("report differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", dir, out.Bytes(), want)
			}
		})
	}
}

func TestReportErrors(t *testing.T) {
	if err := run(&bytes.Buffer{}, "", filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing native database accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, "", empty); err == nil {
		t.Error("database with no browser-attributed flows accepted")
	}
}
