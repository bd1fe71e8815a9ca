package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"panoptes/internal/analysis"
	"panoptes/internal/faultsim"
	"panoptes/internal/leak"
	"panoptes/internal/pii"
	"panoptes/internal/profiles"
)

// dataPlaneWorld is smallWorld with the transport knobs exposed: cold
// disables both TLS session resumption and upstream connection reuse,
// so every exchange pays a fresh dial and a full handshake — the
// reference data plane the warm (resumed + pooled) variants must be
// byte-identical to. Dolphin joins the fault fleet so the WebSocket
// telemetry path is under the contract, and the transport list is the
// explicit -transports=h1,h2,ws,doh form (with the UDP/443 block
// active, its default), pinning the acceptance ablation: dissecting
// every transport must not cost a byte of determinism.
func dataPlaneWorld(t *testing.T, cold bool) *World {
	t.Helper()
	var profs []*profiles.Profile
	for _, n := range append(faultBrowsers, "Dolphin") {
		p := profiles.ByName(n)
		if p == nil {
			t.Fatalf("no profile %q", n)
		}
		profs = append(profs, p)
	}
	w, err := NewWorld(WorldConfig{
		Sites:            3,
		Profiles:         profs,
		DisableKeepAlive: cold,
		DisableTLSResume: cold,
		Transports:       []string{"h1", "h2", "ws", "doh"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// dataPlaneResult bundles the determinism-contract outputs of one
// campaign run together with the world that produced them, so callers
// can also inspect transport counters.
type dataPlaneResult struct {
	fig2   []analysis.Fig2Row
	matrix pii.Matrix
	leaks  []leak.Finding
	res    *CampaignResult
	world  *World
}

// runDataPlaneCampaign crawls 3 sites with faultBrowsers over either
// the cold or the warm data plane and returns the analyses. Mirrors
// runFaultCampaign, adding the cold knob and the world handle.
func runDataPlaneCampaign(t *testing.T, parallelism int, cold, faulty, viaCheckpoint bool) dataPlaneResult {
	t.Helper()
	newWorld := func() *World {
		w := dataPlaneWorld(t, cold)
		if faulty {
			plan := keystonePlan()
			// Pool poison is chaos-mode: it only forces redials, which
			// must not change a single analysis byte.
			plan.ChaosRates = map[faultsim.Kind]float64{faultsim.PoolPoison: 0.3}
			w.InstallFaults(faultsim.New(plan))
		}
		return w
	}
	base := CampaignConfig{Parallelism: parallelism, NavigateTimeout: 20 * time.Second}

	w := newWorld()
	var res *CampaignResult
	if !viaCheckpoint {
		r, err := w.RunCampaign(base)
		if err != nil {
			t.Fatal(err)
		}
		res = r
	} else {
		first := base
		first.StopAfterVisits = 4
		first.Checkpoint = true
		r1, err := w.RunCampaign(first)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Stopped || r1.Checkpoint == nil {
			t.Fatalf("campaign did not stop on budget: stopped=%v checkpoint=%v", r1.Stopped, r1.Checkpoint != nil)
		}
		data, err := json.Marshal(r1.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		cp := &Checkpoint{}
		if err := json.Unmarshal(data, cp); err != nil {
			t.Fatal(err)
		}
		w = newWorld()
		second := base
		second.Resume = cp
		r2, err := w.RunCampaign(second)
		if err != nil {
			t.Fatal(err)
		}
		res = r2
	}

	assertStreamingMatchesBatch(t, w)

	rs := replaySuite(w)
	fig2, matrix, leaks := rs.Fig2.Rows(), rs.PII.Matrix(), rs.LeakNative.Findings()
	for i := range leaks {
		leaks[i].FlowID = 0 // process-global ticket numbers, not data
	}
	return dataPlaneResult{fig2: fig2, matrix: matrix, leaks: leaks, res: res, world: w}
}

// marshalAnalyses flattens a run's analyses to one JSON blob so the
// determinism contract is literally byte equality.
func marshalAnalyses(t *testing.T, r dataPlaneResult) []byte {
	t.Helper()
	blob, err := json.Marshal(struct {
		Fig2   []analysis.Fig2Row
		Matrix pii.Matrix
		Leaks  []leak.Finding
	}{r.fig2, r.matrix, r.leaks})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDataPlaneDeterminism is the perf PR's keystone: campaigns run
// over the warm data plane — TLS session resumption on both sides of
// the proxy plus upstream connection reuse, with pool poison forcing
// occasional redials — produce byte-identical analyses to the cold
// full-handshake, dial-per-exchange path, straight through and via
// checkpoint/resume, at parallelism 1 and 8.
func TestDataPlaneDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("seven multi-browser crawls")
	}

	coldRef := runDataPlaneCampaign(t, 1, true, false, false)
	if coldRef.res.Errors != 0 {
		t.Fatalf("cold baseline had %d errors: %+v", coldRef.res.Errors, coldRef.res.Visits)
	}
	refBlob := marshalAnalyses(t, coldRef)
	if cr, _, ur, _ := coldRef.world.Proxy.ResumptionStats(); cr != 0 || ur != 0 {
		t.Fatalf("cold world resumed handshakes: client=%d upstream=%d, want 0", cr, ur)
	}
	if reused, _ := coldRef.world.Proxy.ConnReuseStats(); reused != 0 {
		t.Fatalf("cold world reused %d upstream conns, want 0", reused)
	}

	type variant struct {
		name          string
		parallelism   int
		faulty        bool
		viaCheckpoint bool
	}
	variants := []variant{
		{"warm/p1", 1, false, false},
		{"warm/p8", 8, false, false},
		{"warm-faulted/p1", 1, true, false},
		{"warm-faulted/p8", 8, true, false},
		{"warm-faulted-resume/p1", 1, true, true},
		{"warm-faulted-resume/p8", 8, true, true},
	}
	for _, v := range variants {
		r := runDataPlaneCampaign(t, v.parallelism, false, v.faulty, v.viaCheckpoint)
		if r.res.Errors != 0 {
			t.Fatalf("%s: %d visits failed terminally: %+v", v.name, r.res.Errors, r.res.Visits)
		}
		if blob := marshalAnalyses(t, r); !bytes.Equal(blob, refBlob) {
			t.Errorf("%s: analyses diverge from the cold data plane:\ngot  %s\nwant %s", v.name, blob, refBlob)
		}
		if !v.faulty {
			// Same converging world, so the visit ledger must match the
			// cold run exactly too.
			if !reflect.DeepEqual(r.res.Visits, coldRef.res.Visits) {
				t.Errorf("%s: visit records diverge from cold baseline:\ngot  %+v\nwant %+v", v.name, r.res.Visits, coldRef.res.Visits)
			}
		}
		_, _, upResumed, _ := r.world.Proxy.ResumptionStats()
		reused, dialed := r.world.Proxy.ConnReuseStats()
		if reused == 0 {
			t.Errorf("%s: warm world never reused an upstream conn (dialed %d)", v.name, dialed)
		}
		if upResumed == 0 {
			t.Errorf("%s: warm world never resumed an upstream TLS session", v.name)
		}
		if v.faulty {
			if got := r.world.Faults.Counts()[faultsim.PoolPoison]; got == 0 {
				t.Errorf("%s: pool poison never fired; the redial path went untested", v.name)
			}
		}
	}
}
