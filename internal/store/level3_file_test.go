package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/store"
	"excovery/internal/store/reldb"
)

// oneShotLevel3 runs a fixed three-run OneShot campaign at platform seed 1
// and returns its level-3 database and the path it was saved to. A
// non-nil harvested is called on the level-2 store before conditioning.
func oneShotLevel3(t *testing.T, harvested func(*store.RunStore)) (*store.ExperimentDB, string) {
	t.Helper()
	e := desc.OneShot(30)
	e.Repl.Count = 3
	dir := t.TempDir()
	x, err := core.New(e, core.Options{StoreDir: filepath.Join(dir, "l2"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	if harvested != nil {
		harvested(x.Store())
	}
	db, err := x.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "exp.xcdb")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	return db, path
}

// TestLevel3GoldenDigest pins the level-3 file format: the bytes of a
// fixed campaign's database must not change with the encoder. The digest
// was recorded with the buffered (pre-streaming) encoder.
func TestLevel3GoldenDigest(t *testing.T) {
	const want = "0120696bdbf5550c123f85c35c8ecbcb28bc25f31522bd210364c2259f2d217a"
	_, path := oneShotLevel3(t, nil)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("level-3 SHA-256 = %s, want %s (%d bytes)", got, want, len(b))
	}
}

// TestLevel3DigestIndependentOfGOMAXPROCS: conditioning fans runs out
// over GOMAXPROCS workers, yet the level-3 file of the golden campaign is
// the same with one worker, with the default count and with four (more
// than the campaign's three runs).
func TestLevel3DigestIndependentOfGOMAXPROCS(t *testing.T) {
	digest := func() string {
		_, path := oneShotLevel3(t, nil)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	def := digest()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := digest(); got != def {
			t.Fatalf("level-3 SHA-256 at GOMAXPROCS=%d = %s, at the default = %s", procs, got, def)
		}
	}
}

// TestReopenedDBMatchesFresh: the per-run accessors return the same data
// from the database Condition built and from the saved file reopened.
func TestReopenedDBMatchesFresh(t *testing.T) {
	// OneShot harvests no extra measurements; add one per run, and an
	// empty one, so ExtrasOfRun has blobs to compare.
	fresh, path := oneShotLevel3(t, func(rs *store.RunStore) {
		for run := 0; run < 3; run++ {
			if err := rs.WriteExtra(run, "A", "cpu.txt", []byte(fmt.Sprintf("%d%%", 40+run))); err != nil {
				t.Fatal(err)
			}
			if err := rs.WriteExtra(run, "B", "empty.txt", nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	reopened, err := store.OpenExperimentDB(path)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := fresh.RunIDs()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.RunIDs(); err != nil || !reflect.DeepEqual(got, ids) {
		t.Fatalf("reopened RunIDs = %v, %v; want %v", got, err, ids)
	}
	if len(ids) != 3 {
		t.Fatalf("RunIDs = %v, want 3 runs", ids)
	}
	for _, id := range ids {
		sameRows(t, id, "EventsOfRun", fresh.EventsOfRun, reopened.EventsOfRun)
		sameRows(t, id, "PacketsOfRun", fresh.PacketsOfRun, reopened.PacketsOfRun)
		sameRows(t, id, "ExtrasOfRun", fresh.ExtrasOfRun, reopened.ExtrasOfRun)
	}
}

// sameRows fails the test unless one run's rows, non-empty on the fresh
// database, are deeply equal on the reopened one.
func sameRows[T any](t *testing.T, run int, what string, fresh, reopened func(int) ([]T, error)) {
	t.Helper()
	want, err := fresh(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("run %d: fresh %s is empty", run, what)
	}
	got, err := reopened(run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run %d: %s differs after reopen:\n got %v\nwant %v", run, what, got, want)
	}
}

// TestSaveAllocsIndependentOfRowCount: Save streams rows through one
// reused buffer, so a ten times larger table costs no more allocations.
func TestSaveAllocsIndependentOfRowCount(t *testing.T) {
	base := time.Date(2014, 5, 19, 12, 0, 0, 0, time.UTC)
	build := func(rows int) *reldb.DB {
		e, err := store.NewExperimentDB()
		if err != nil {
			t.Fatal(err)
		}
		line := bytes.Repeat([]byte("x"), 200)
		for i := 0; i < rows; i++ {
			if err := e.DB.Insert("Packets", reldb.Row{
				int64(i % 7), "node-A", base.Add(time.Duration(i)), "node-B", line,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return e.DB
	}
	allocs := func(db *reldb.DB) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := db.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(build(1000)), allocs(build(10000))
	if large > small {
		t.Fatalf("Save allocations grow with rows: %v at 1k rows, %v at 10k", small, large)
	}
}
