// Command campaignbench measures ExCovery campaigns end to end: description
// → plan → closed-loop runs → level-2 store and journal → conditioning →
// level-3 file → the report read path that excovery-report takes. It drives
// the program only through its public packages; the workload seed reaches
// the program as Options.Seed and Experiment.Seed and nowhere else.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash campaignbench/run.sh --workload oneshot-campaign --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the last stdout line is one JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separately traced run, a Chrome trace is written below .bench_build/ and
// a per-layer self-time table goes to stderr. See README.md in this
// directory for the workloads and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one invocation.
type config struct {
	w       workload
	seed    int64
	budget  time.Duration
	trace   bool
	scratch string // tmpfs directory for level-2 stores and level-3 files
	diskDir string // directory on the checkout's filesystem (disk probe, trace output)
	runs    int    // runs per campaign; 0 means the workload's full size
	minReps int    // measured campaigns at least, deadline or not
	log     io.Writer
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (Options.Seed and Experiment.Seed)")
	seconds := fs.Int("seconds", 35, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "campaignbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	diskDir := filepath.Join(".bench_build", "campaignbench")
	if err := os.MkdirAll(diskDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	scratch, err := makeScratch(diskDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	// Level-2 stores can be large; remove them on an interrupt too.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(scratch)
		os.Exit(1)
	}()
	defer os.RemoveAll(scratch)

	cfg := config{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scratch: scratch, diskDir: diskDir, minReps: 3, log: os.Stderr}
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// makeScratch creates the directory for level-2 stores and level-3 files.
// Gated runs keep them on tmpfs: fsync on the shared disk drifts by several
// times over a session, which would measure the disk, not the program.
// Without a writable /dev/shm the checkout's filesystem is used instead.
func makeScratch(fallback string) (string, error) {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "campaignbench-"); err == nil {
			return dir, nil
		}
	}
	fmt.Fprintln(os.Stderr, "campaignbench: /dev/shm unavailable, stores go to", fallback)
	return os.MkdirTemp(fallback, "scratch-")
}

// bench runs one invocation: the end-to-end run, or the traced run.
func bench(cfg config) (*result, error) {
	if cfg.trace {
		return benchTraced(cfg)
	}
	return benchEndToEnd(cfg)
}

// benchEndToEnd repeats whole campaigns until the budget is spent and
// reports medians over the measured ones; the first campaign is a warm-up
// that is checked but not timed.
func benchEndToEnd(cfg config) (*result, error) {
	deadline := wallNow().Add(cfg.budget)
	s := newSession(cfg)
	if _, err := s.campaign(nil); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	var cs []*campaign
	var setups []float64
	for len(cs) < cfg.minReps || wallNow().Before(deadline) {
		c, err := s.campaign(nil)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
		setups = append(setups, c.setup.Seconds())
		// Set-up is sub-millisecond on the emulated workloads: take more
		// samples than there are campaigns so its median settles.
		for i := 0; i < cfg.w.extraSetups; i++ {
			d, err := s.setupOnly()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
	}
	return s.endToEnd(cs, setups), nil
}

// endToEnd aggregates measured campaigns into the end-to-end metrics.
// Campaigns of one invocation run the same plan at the same seed, so run i
// does the same work in each of them; its wall time is taken as the median
// over the campaigns, and run_p50_ms and run_p90_ms are percentiles over
// these per-run medians (100 or more runs, so at least ten lie beyond the
// 90th percentile). The other timings are medians over campaigns.
func (s *session) endToEnd(cs []*campaign, setups []float64) *result {
	var total, fin, rep, heap []float64
	runs := len(cs[0].runs)
	for _, c := range cs {
		total = append(total, c.total.Seconds())
		fin = append(fin, c.finalize.Seconds())
		rep = append(rep, c.report.Seconds())
		heap = append(heap, c.heapMiB)
		runs = min(runs, len(c.runs))
	}
	perRun := make([]float64, runs)
	reps := make([]float64, len(cs))
	for i := range perRun {
		for j, c := range cs {
			reps[j] = float64(c.runs[i]) / 1e6
		}
		perRun[i] = median(reps)
	}
	p90 := quantile(perRun, 0.9)
	fmt.Fprintf(s.cfg.log, "%s seed %d: %d measured campaigns of %d runs (%d runs beyond p90), %d set-up samples, %d/%d runs failed\n",
		s.cfg.w.name, s.cfg.seed, len(cs), runs, countAbove(perRun, p90), len(setups), s.failed, s.attempted)
	return &result{
		Correct:   s.err == nil,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics: map[string]metricValue{
			"setup_s":      {median(setups), "s"},
			"campaign_s":   {median(total), "s"},
			"run_p50_ms":   {quantile(perRun, 0.5), "ms"},
			"run_p90_ms":   {p90, "ms"},
			"finalize_s":   {median(fin), "s"},
			"report_s":     {median(rep), "s"},
			"heap_live_mb": {median(heap), "MiB"},
		},
	}
}

// wallNow reads the wall clock, the only clock a benchmark of wall times
// can use.
func wallNow() time.Time {
	//lint:ignore walltime the benchmark measures wall time by definition
	return time.Now()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
