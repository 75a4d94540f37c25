package desc

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzMaxRuns bounds the plans the fuzz target expands. GeneratePlan
// accepts up to maxPlanRuns runs, and a single replication count can ask
// for that many; expanding such plans would only measure memory.
const fuzzMaxRuns = 100_000

// FuzzParsePlan drives a description through the whole front end:
// ParseString, Validate, GeneratePlan. Hostile documents must yield
// errors, never panics, and every description Validate accepts must also
// produce a plan. The seeds are the shipped descriptions.
func FuzzParsePlan(f *testing.F) {
	files, err := filepath.Glob(filepath.Join(repoRoot(f), "descriptions", "*.xml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped descriptions: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(fig4)
	f.Fuzz(func(t *testing.T, doc string) {
		e, err := ParseString(doc)
		if err != nil {
			return
		}
		if Validate(e) != nil || plannedRuns(e) > fuzzMaxRuns {
			return
		}
		if _, err := GeneratePlan(e); err != nil {
			t.Fatalf("Validate accepted a description that does not plan: %v", err)
		}
	})
}

// plannedRuns is the run count GeneratePlan would expand e into, saturating
// above fuzzMaxRuns.
func plannedRuns(e *Experiment) int {
	total := max(e.Repl.Count, 1)
	for _, fac := range e.Factors {
		if total > fuzzMaxRuns {
			break
		}
		total *= max(len(fac.Levels), 1)
	}
	return min(total, fuzzMaxRuns+1)
}
