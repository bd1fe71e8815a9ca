package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"panoptes/internal/core"
)

// Digest is the canonical suite digest: the sha256 of the world's
// finalized analyses (Pipeline.Results as JSON) with the two
// process-dependent inputs removed. Flow IDs come from a process-global
// allocator, so every "FlowID" field is zeroed. Trackable identifiers are
// per-install random UUIDs, and they also sit inside captured bodies
// such as Listing 1's operaId, so every occurrence of every value
// Suite.Trackable reports is masked wherever it appears.
func Digest(w *core.World) (string, error) {
	raw, err := json.Marshal(w.Pipeline.Results())
	if err != nil {
		return "", fmt.Errorf("bench: marshal suite results: %w", err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("bench: reparse suite results: %w", err)
	}
	var ids []string
	for _, t := range w.Suite.Trackable.IDs() {
		ids = append(ids, t.Values...)
	}
	// Longest first, so a value that contains another is masked whole.
	sort.Slice(ids, func(i, j int) bool { return len(ids[i]) > len(ids[j]) })
	canon, err := json.Marshal(canonicalize(v, ids))
	if err != nil {
		return "", fmt.Errorf("bench: marshal canonical results: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

func canonicalize(v any, ids []string) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if k == "FlowID" {
				x[k] = 0
			} else {
				x[k] = canonicalize(e, ids)
			}
		}
	case []any:
		for i, e := range x {
			x[i] = canonicalize(e, ids)
		}
	case string:
		for _, id := range ids {
			if id != "" {
				x = strings.ReplaceAll(x, id, "<trackable-id>")
			}
		}
		return x
	}
	return v
}

// pinnedJSON holds the digests of the default-size, default-seed plans,
// keyed by planKey. Regenerate an entry by running the workload and
// copying the "digest" of its result record.
//
//go:embed digests.json
var pinnedJSON []byte

// pinned returns the pinned digest for a plan ("" when none is pinned).
func pinned(key string) string {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		panic("bench: digests.json: " + err.Error()) // embedded at build time
	}
	return m[key]
}

// planKey names the analyses a run's digest must reproduce. The crawls
// and fabric-wan share the key of the fault-free crawl of the whole
// fleet over the same first sites of the dataset: faults that retries
// absorb, and the fabric's lease-and-merge, must not change a byte.
func planKey(opts Options) (string, bool) {
	switch opts.Workload {
	case "crawl", "crawl-chaos":
		return fmt.Sprintf("crawl/sites=%d", opts.Size.CrawlSites), true
	case "fabric-wan":
		return fmt.Sprintf("crawl/sites=%d", opts.Size.FabricSites), true
	case "population":
		return fmt.Sprintf("population/users=%d/seed=%d", opts.Size.Users, opts.Seed), true
	}
	return "", false
}
