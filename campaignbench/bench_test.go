package main

import (
	"encoding/json"
	"io"

	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"excovery/internal/metrics"
	"excovery/internal/obs"
	"excovery/internal/store"
	"excovery/internal/store/reldb"
)

// spec is the part of BENCHMARK.json the self-test holds the output to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny configures one invocation at the smallest campaign size that still
// covers every treatment.
func tiny(t *testing.T, w workload, trace bool) config {
	t.Helper()
	runs := 8
	if w.name == "casestudy-load" {
		runs = 6
	}
	return config{w: w, seed: 7, budget: time.Nanosecond, trace: trace,
		scratch: t.TempDir(), diskDir: t.TempDir(), runs: runs, minReps: 1, log: io.Discard}
}

// TestEveryMetricPrinted runs each workload at a tiny size, untraced and
// traced, and checks that the result carries exactly the metrics
// BENCHMARK.json names, each with its unit, and passes the output checks.
func TestEveryMetricPrinted(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, campaignbench has %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to campaignbench", sw.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range sp.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range sp.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := bench(tiny(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			// Real-time pacing on rpc-control fails runs when the host is
			// slowed down (as under the race detector); failed runs are
			// counted, not hidden, which is all the benchmark promises.
			if !res.Correct || res.Attempted < 1 || (res.Failed != 0 && !w.rpc) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}

// TestTamperedDigestFails checks that a level-3 file whose digest differs
// from the first campaign's at the same seed fails the invocation.
func TestTamperedDigestFails(t *testing.T) {
	w, _ := workloadByName("oneshot-campaign")
	s := newSession(tiny(t, w, false))
	if _, err := s.campaign(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.campaign(nil); err != nil {
		t.Fatal(err)
	}
	if s.err != nil {
		t.Fatalf("two campaigns at one seed: %v", s.err)
	}
	flip := "0"
	if strings.HasPrefix(s.digest, "0") {
		flip = "1"
	}
	s.digest = flip + s.digest[1:]
	if _, err := s.campaign(nil); err != nil {
		t.Fatal(err)
	}
	if s.err == nil || !strings.Contains(s.err.Error(), "digest") {
		t.Fatalf("tampered digest passed the check (err %v)", s.err)
	}
}

// TestTamperedOutputsFail checks that verify rejects a level-3 file with
// an extra Events or RunInfos row, a Report that lost an event, and a
// FromDB t_R that differs from FromReport.
func TestTamperedOutputsFail(t *testing.T) {
	w, _ := workloadByName("oneshot-campaign")
	s := newSession(tiny(t, w, false))
	p := newProbe(obs.NewTracer(nil), 0, false)
	if _, err := s.campaignIn(t.TempDir(), p); err != nil {
		t.Fatal(err)
	}
	k := p.kept
	reopen := func() (*store.ExperimentDB, []metrics.RunMetric) {
		t.Helper()
		db, err := store.OpenExperimentDB(k.path)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := metrics.FromDB(db, "", "")
		if err != nil {
			t.Fatal(err)
		}
		return db, ms
	}
	db, ms := reopen()
	if _, err := verify(k.e, k.rep, db, ms, false); err != nil {
		t.Fatalf("untampered outputs: %v", err)
	}

	rows, err := db.DB.Select(reldb.Query{Table: "Events", Limit: 1})
	if err != nil || len(rows) != 1 {
		t.Fatalf("select: %v", err)
	}
	if err := db.DB.Insert("Events", rows[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := verify(k.e, k.rep, db, ms, false); err == nil {
		t.Error("extra Events row passed the check")
	}

	db, ms = reopen()
	rows, err = db.DB.Select(reldb.Query{Table: "RunInfos", Limit: 1})
	if err != nil || len(rows) != 1 {
		t.Fatalf("select: %v", err)
	}
	if err := db.DB.Insert("RunInfos", rows[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := verify(k.e, k.rep, db, ms, false); err == nil {
		t.Error("extra RunInfos row passed the check")
	}

	db, ms = reopen()
	evs := k.rep.Results[0].Events
	k.rep.Results[0].Events = evs[1:]
	if _, err := verify(k.e, k.rep, db, ms, false); err == nil {
		t.Error("Report with a lost event passed the check")
	}
	k.rep.Results[0].Events = evs

	ms[0].TR += time.Millisecond
	if _, err := verify(k.e, k.rep, db, ms, false); err == nil {
		t.Error("FromDB t_R that differs from FromReport passed the check")
	}
}
