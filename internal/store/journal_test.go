package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"excovery/internal/eventlog"
)

func TestJournalReplayLifecycle(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Run 0: clean completion. Run 1: failed attempt, then success.
	// Run 2: begin with no end — the crash case.
	j.Begin(0, 1, 42, 0)
	j.End(0, 1, "ok", "")
	j.Done(0)
	j.Begin(1, 1, 43, 1)
	j.End(1, 1, "failed", "boom")
	j.Begin(1, 2, 43, 1)
	j.End(1, 2, "ok", "")
	j.Done(1)
	j.Begin(2, 1, 44, 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rp := j2.Replay()
	if rp.Records != 9 {
		t.Fatalf("records = %d, want 9", rp.Records)
	}
	if !rp.Done[0] || !rp.Done[1] || rp.Done[2] {
		t.Fatalf("done = %v", rp.Done)
	}
	if !rp.Dangling[2] || rp.Dangling[0] || rp.Dangling[1] {
		t.Fatalf("dangling = %v", rp.Dangling)
	}
	if !rp.InDoubt(2) || rp.InDoubt(0) || rp.InDoubt(1) {
		t.Fatal("InDoubt disagrees with replay state")
	}
	if rp.Attempts[1] != 2 {
		t.Fatalf("attempts[1] = %d, want 2", rp.Attempts[1])
	}
	// New appends continue the sequence.
	j2.End(2, 1, "aborted", "")
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	rp3 := j3.Replay()
	if rp3.Dangling[2] || !rp3.Ended[2] || !rp3.InDoubt(2) {
		t.Fatalf("after end: dangling=%v ended=%v", rp3.Dangling, rp3.Ended)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Begin(0, 1, 1, 0)
	j.End(0, 1, "ok", "")
	j.Done(0)
	j.Close()

	// Simulate a crash mid-append: a half-written final record.
	f, err := os.OpenFile(JournalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":4,"type":"run_attempt_beg`)
	f.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer j2.Close()
	rp := j2.Replay()
	if !rp.Truncated || rp.Records != 3 || !rp.Done[0] {
		t.Fatalf("replay = %+v", rp)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	j.Begin(0, 1, 1, 0)
	j.Close()
	data, _ := os.ReadFile(JournalPath(dir))
	os.WriteFile(JournalPath(dir), append([]byte("garbage not json\n"), data...), 0o644)
	if _, err := OpenJournal(dir); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	if err := j.Begin(0, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.End(0, 1, "ok", ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Done(0); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 0 || j.Replay().InDoubt(0) {
		t.Fatal("nil journal not inert")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManifestVerify(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := PlanManifest{DescriptionHash: HashDescription("<x/>"), Seed: 7, PlanLen: 12, PlatformSeed: 41}
	// No manifest yet: verification is trivial (pre-journal stores).
	if err := rs.VerifyManifest(m); err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	if err := rs.VerifyManifest(m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*PlanManifest)
	}{
		{"description", func(p *PlanManifest) { p.DescriptionHash = HashDescription("<y/>") }},
		{"seed", func(p *PlanManifest) { p.Seed = 8 }},
		{"plan length", func(p *PlanManifest) { p.PlanLen = 13 }},
		{"platform seed", func(p *PlanManifest) { p.PlatformSeed = 42 }},
	} {
		bad := m
		tc.mut(&bad)
		err := rs.VerifyManifest(bad)
		if err == nil || !strings.Contains(err.Error(), "resume refused") {
			t.Fatalf("%s mismatch: err = %v", tc.name, err)
		}
	}
	// A zero platform seed on either side (no emulated platform, or a
	// pre-field manifest) is not verified.
	unset := m
	unset.PlatformSeed = 0
	if err := rs.VerifyManifest(unset); err != nil {
		t.Fatalf("zero platform seed verified: %v", err)
	}
}

func TestStagedHarvestCommitsAtomically(t *testing.T) {
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := rs.StageRun(3)
	if err != nil {
		t.Fatal(err)
	}
	st := sr.Store()
	if err := st.WriteEvents(3, "A", []eventlog.Event{{Node: "A", Type: "ev"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteRunInfo(RunInfo{Run: 3}); err != nil {
		t.Fatal(err)
	}
	// Nothing visible in the real store before commit, and run listing
	// ignores the staging directory.
	if runs, _ := rs.Runs(); len(runs) != 0 {
		t.Fatalf("runs before commit = %v", runs)
	}
	if err := sr.Commit(); err != nil {
		t.Fatal(err)
	}
	if runs, _ := rs.Runs(); len(runs) != 1 || runs[0] != 3 {
		t.Fatalf("runs after commit = %v", runs)
	}
	evs, err := rs.ReadEvents(3, "A")
	if err != nil || len(evs) != 1 {
		t.Fatalf("events = %v, %v", evs, err)
	}
	if _, err := os.Stat(filepath.Join(rs.Dir, "runs", ".staging-3")); !os.IsNotExist(err) {
		t.Fatal("staging directory left behind")
	}
}

func TestStagedHarvestSupersedesPartialDir(t *testing.T) {
	rs, _ := NewRunStore(t.TempDir())
	// A half-written run dir from a crashed in-place harvest.
	if err := rs.WriteEvents(1, "A", []eventlog.Event{{Node: "A", Type: "stale"}}); err != nil {
		t.Fatal(err)
	}
	sr, err := rs.StageRun(1)
	if err != nil {
		t.Fatal(err)
	}
	sr.Store().WriteEvents(1, "A", []eventlog.Event{{Node: "A", Type: "fresh"}})
	if err := sr.Commit(); err != nil {
		t.Fatal(err)
	}
	evs, _ := rs.ReadEvents(1, "A")
	if len(evs) != 1 || evs[0].Type != "fresh" {
		t.Fatalf("committed events = %v", evs)
	}
}

func TestDiscardRunRefusesDone(t *testing.T) {
	rs, _ := NewRunStore(t.TempDir())
	rs.WriteEvents(0, "A", []eventlog.Event{{Node: "A", Type: "ev"}})
	rs.MarkRunDone(0)
	if err := rs.DiscardRun(0); err == nil {
		t.Fatal("discarded a completed run")
	}
	rs.WriteEvents(1, "A", []eventlog.Event{{Node: "A", Type: "ev"}})
	if err := rs.DiscardRun(1); err != nil {
		t.Fatal(err)
	}
	if runs, _ := rs.Runs(); len(runs) != 1 || runs[0] != 0 {
		t.Fatalf("runs after discard = %v", runs)
	}
}

// FuzzJournalReplay holds journal replay to its crash contract on
// arbitrary bytes: it never panics, replaying the same bytes twice gives
// the same state, and a journal that replays cleanly, cut at any byte (a
// crash mid-append), still replays and loses at most the record the cut
// tore.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	j.Begin(0, 1, 42, 0)
	j.End(0, 1, "ok", "")
	j.Done(0)
	j.Begin(1, 1, 43, 1)
	j.End(1, 1, "failed", "boom \"quoted\"")
	j.Begin(1, 2, 43, 1)
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-9])
	f.Add(append([]byte("garbage not json\n"), data...))
	f.Add([]byte("\n\nnull\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, seq, err := replayRecords(bytes.NewReader(data), "fuzz")
		rp2, seq2, err2 := replayRecords(bytes.NewReader(data), "fuzz")
		if fmt.Sprint(err) != fmt.Sprint(err2) || seq != seq2 || !reflect.DeepEqual(rp, rp2) {
			t.Fatalf("replays of the same bytes differ: (%+v, %d, %v) vs (%+v, %d, %v)", rp, seq, err, rp2, seq2, err2)
		}
		if err != nil || rp.Truncated {
			return
		}
		for cut := 0; cut < len(data); cut++ {
			c, _, err := replayRecords(bytes.NewReader(data[:cut]), "fuzz")
			if err != nil {
				t.Fatalf("cut at byte %d of %d: %v", cut, len(data), err)
			}
			// The lines the cut left whole replay as they did in the
			// whole journal; only the torn one may go.
			whole := data[:bytes.LastIndexByte(data[:cut], '\n')+1]
			intact, _, _ := replayRecords(bytes.NewReader(whole), "fuzz")
			switch c.Records {
			case intact.Records:
				c.Truncated = false
				if !reflect.DeepEqual(c, intact) {
					t.Fatalf("cut at byte %d of %d: replay %+v, its whole lines alone %+v", cut, len(data), c, intact)
				}
			case intact.Records + 1: // the cut fell after a whole record
			default:
				t.Fatalf("cut at byte %d of %d: %d records, its whole lines hold %d", cut, len(data), c.Records, intact.Records)
			}
		}
	})
}
