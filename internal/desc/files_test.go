package desc

import (
	"os"
	"path/filepath"
	"testing"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestShippedDescriptionsMatchBuilders keeps descriptions/*.xml in sync
// with the programmatic builders: each file must parse, validate, and
// generate the exact treatment plan of its builder counterpart.
func TestShippedDescriptionsMatchBuilders(t *testing.T) {
	root := repoRoot(t)
	cases := map[string]*Experiment{
		"casestudy.xml":           CaseStudy(1000),
		"oneshot.xml":             OneShot(30),
		"threeparty.xml":          ThreeParty(30, 1000),
		"casestudy-reorder.xml":   ChaosReorder(100),
		"casestudy-duplicate.xml": ChaosDuplicate(100),
		"flapping-iface.xml":      FlappingIface(100),
		"partition-heal.xml":      PartitionHeal(100),
		"ramped-loss.xml":         RampedLoss(100),
		"rate-limited.xml":        RateLimited(100),
		"registry-churn.xml":      RegistryChurn(100),
	}
	for file, want := range cases {
		t.Run(file, func(t *testing.T) {
			f, err := os.Open(filepath.Join(root, "descriptions", file))
			if err != nil {
				t.Fatalf("shipped description missing: %v (regenerate with desc.Encode)", err)
			}
			defer f.Close()
			got, err := Parse(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(got); err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name || got.Seed != want.Seed {
				t.Fatalf("header drift: %q/%d vs %q/%d", got.Name, got.Seed, want.Name, want.Seed)
			}
			pGot, err := GeneratePlan(got)
			if err != nil {
				t.Fatal(err)
			}
			pWant, err := GeneratePlan(want)
			if err != nil {
				t.Fatal(err)
			}
			if len(pGot.Runs) != len(pWant.Runs) || pGot.Treatments != pWant.Treatments {
				t.Fatalf("plan drift: %d/%d vs %d/%d runs/treatments",
					len(pGot.Runs), pGot.Treatments, len(pWant.Runs), pWant.Treatments)
			}
			for i := range pGot.Runs {
				for fid, l := range pWant.Runs[i].Treatment {
					if !l.Equal(pGot.Runs[i].Treatment[fid]) {
						t.Fatalf("run %d factor %s drifted", i, fid)
					}
				}
			}
			// Process structure preserved.
			if len(got.NodeProcesses) != len(want.NodeProcesses) ||
				len(got.EnvProcesses) != len(want.EnvProcesses) ||
				len(got.ManipProcesses) != len(want.ManipProcesses) {
				t.Fatalf("process drift: %d/%d/%d vs %d/%d/%d node/env/manip",
					len(got.NodeProcesses), len(got.EnvProcesses), len(got.ManipProcesses),
					len(want.NodeProcesses), len(want.EnvProcesses), len(want.ManipProcesses))
			}
		})
	}
}

// TestSchemaFileExists keeps the XSD artifact (§IV-C: "An XML schema
// description is provided with the framework code") present and
// non-trivial.
func TestSchemaFileExists(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "schema", "experiment.xsd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"xs:schema", "wait_for_event", "factorref", "replicationfactor"} {
		if !containsStr(string(data), want) {
			t.Errorf("schema lacks %q", want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
