// Command excovery-bench turns `go test -json -bench` streams (the dated
// BENCH_*.json files in the repo root) into per-benchmark metric series,
// delta tables between two recordings, a CHANGES.md one-liner, and a
// threshold-checked regression gate for CI. It understands the standard
// ns/op, B/op and allocs/op columns as well as the repo's custom
// ReportMetric units (R, t_R_ms, t_R_p90_ms, pkts/10s, violations/op).
//
// Usage:
//
//	excovery-bench NEW.json                     # per-benchmark listing
//	excovery-bench NEW.json OLD.json            # delta table
//	excovery-bench -changes NEW.json            # CHANGES.md note vs newest prior
//	excovery-bench -check bench-thresholds.json NEW.json [OLD.json]
//
// Without an explicit OLD.json, the baseline is the newest other
// BENCH_*.json next to NEW.json (override the directory with
// -baseline-dir). -check exits 2 on a threshold breach. Repeated result
// lines of one benchmark (go test -count > 1) reduce to the per-unit
// median.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// now is the wall clock stamped into -changes notes; tests pin it. The
// date is operator-facing metadata, not part of any deterministic replay.
var now = time.Now

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("excovery-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		changes     = fs.Bool("changes", false, "emit the one-line CHANGES.md Fig. 3 allocs/op note")
		checkFile   = fs.String("check", "", "threshold file; exit 2 when NEW regresses past it vs the baseline")
		baselineDir = fs.String("baseline-dir", "", "directory searched for prior BENCH_*.json (default: NEW's directory)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: excovery-bench [flags] NEW.json [OLD.json]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "" {
		fs.Usage()
		return 2
	}
	newPath := fs.Arg(0)
	cur, err := parseFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	// Resolve the baseline: an explicit second argument wins, otherwise the
	// newest other BENCH_*.json beside NEW (recordings are dated
	// BENCH_YYYYMMDD.json, so lexicographic order is age order).
	basePath := fs.Arg(1)
	if basePath == "" {
		dir := *baselineDir
		if dir == "" {
			dir = filepath.Dir(newPath)
		}
		basePath = newestPrior(dir, newPath)
	}
	var base *suite
	if basePath != "" {
		if base, err = parseFile(basePath); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
	}

	if *changes {
		fmt.Fprintln(stdout, changesNote(cur, base, filepath.Base(newPath), baseName(basePath)))
		return 0
	}
	if *checkFile != "" {
		th, err := loadThresholds(*checkFile)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if base == nil {
			fmt.Fprintf(stdout, "excovery-bench: no baseline BENCH_*.json; nothing to gate\n")
			return 0
		}
		breaches := checkThresholds(cur, base, th)
		for _, b := range breaches {
			fmt.Fprintln(stdout, b)
		}
		if len(breaches) > 0 {
			fmt.Fprintf(stdout, "excovery-bench: %d threshold breach(es) vs %s\n", len(breaches), baseName(basePath))
			return 2
		}
		fmt.Fprintf(stdout, "excovery-bench: %d benchmarks within thresholds vs %s\n", len(cur.order), baseName(basePath))
		return 0
	}
	if base != nil {
		printDelta(stdout, cur, base, baseName(basePath))
	} else {
		printListing(stdout, cur)
	}
	return 0
}

// series maps a metric unit ("ns/op", "allocs/op", "R", …) to its value.
type series map[string]float64

// suite is one parsed benchmark recording.
type suite struct {
	order []string            // benchmark names, sorted
	bench map[string]series   // name → unit → value (median over runs)
	runs  map[string][]series // name → every run's values, in input order
}

// resultLine matches one benchmark result line: name, iteration count,
// then tab-separated "value unit" metric columns.
var resultLine = regexp.MustCompile(`^(Benchmark[^\s]+)\s+(\d+)\s+(.+)$`)

// gomaxprocs strips the trailing -N procs suffix the testing package
// appends when GOMAXPROCS != 1, so recordings from different machines
// compare under one name.
var gomaxprocs = regexp.MustCompile(`-\d+$`)

func parseFile(path string) (*suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseStream(f)
}

// parseStream decodes a `go test -json` event stream (or, as a fallback,
// plain `go test -bench` text) into a suite. The testing package often
// splits one result line across two consecutive output events — the
// padded name first, the metric columns second — so output is reassembled
// per (package, test) before line parsing.
func parseStream(r io.Reader) (*suite, error) {
	s := &suite{bench: map[string]series{}, runs: map[string][]series{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	pending := map[string]string{} // package/test → unterminated output fragment
	plain := false
	for sc.Scan() {
		line := sc.Text()
		if plain || (line != "" && line[0] != '{') {
			plain = true
			s.addLine(line)
			continue
		}
		var ev struct {
			Action  string
			Package string
			Test    string
			Output  string
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("%w (in test2json event stream)", err)
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "/" + ev.Test
		buf := pending[key] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			s.addLine(buf[:nl])
			buf = buf[nl+1:]
		}
		if buf == "" {
			delete(pending, key)
		} else {
			pending[key] = buf
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, buf := range pending {
		s.addLine(buf)
	}
	if len(s.order) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	sort.Strings(s.order)
	for name, runs := range s.runs {
		s.bench[name] = median(runs)
	}
	return s, nil
}

// median reduces repeated runs of one benchmark (go test -count > 1) to
// the per-unit median; with an even number of values it is the mean of
// the middle two. A unit missing from some runs takes the median of the
// runs that report it.
func median(runs []series) series {
	vals := map[string][]float64{}
	for _, ser := range runs {
		for u, v := range ser {
			vals[u] = append(vals[u], v)
		}
	}
	out := series{}
	for u, vs := range vals {
		sort.Float64s(vs)
		n := len(vs)
		out[u] = (vs[(n-1)/2] + vs[n/2]) / 2
	}
	return out
}

// addLine parses one output line, recording it when it is a benchmark
// result. Repeated names (go test -count > 1) accumulate one run each.
func (s *suite) addLine(line string) {
	m := resultLine.FindStringSubmatch(strings.TrimRight(line, "\r"))
	if m == nil {
		return
	}
	name := gomaxprocs.ReplaceAllString(m[1], "")
	ser := series{}
	for _, field := range strings.Split(m[3], "\t") {
		parts := strings.Fields(field)
		if len(parts) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			continue
		}
		ser[parts[1]] = v
	}
	if len(ser) == 0 {
		return
	}
	if _, seen := s.runs[name]; !seen {
		s.order = append(s.order, name)
	}
	s.runs[name] = append(s.runs[name], ser)
}

// unitOrder ranks units for display: the standard columns first, custom
// ReportMetric units after, alphabetically.
func unitOrder(ser series) []string {
	rank := map[string]int{"ns/op": 0, "B/op": 1, "allocs/op": 2}
	units := make([]string, 0, len(ser))
	for u := range ser {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool {
		ri, iok := rank[units[i]]
		rj, jok := rank[units[j]]
		if iok != jok {
			return iok
		}
		if iok && jok {
			return ri < rj
		}
		return units[i] < units[j]
	})
	return units
}

func printListing(w io.Writer, cur *suite) {
	for _, name := range cur.order {
		ser := cur.bench[name]
		cols := make([]string, 0, len(ser))
		for _, u := range unitOrder(ser) {
			cols = append(cols, fmt.Sprintf("%s %s", formatValue(ser[u]), u))
		}
		fmt.Fprintf(w, "%-55s %s\n", name, strings.Join(cols, "  "))
	}
}

func printDelta(w io.Writer, cur, base *suite, baseLabel string) {
	fmt.Fprintf(w, "%-55s %-14s %14s %14s %9s\n", "benchmark (vs "+baseLabel+")", "unit", "old", "new", "delta")
	for _, name := range cur.order {
		ser := cur.bench[name]
		old, ok := base.bench[name]
		if !ok {
			fmt.Fprintf(w, "%-55s %-14s %14s %14s %9s\n", name, "-", "-", formatValue(ser["ns/op"]), "new")
			continue
		}
		for _, u := range unitOrder(ser) {
			ov, has := old[u]
			if !has {
				continue
			}
			fmt.Fprintf(w, "%-55s %-14s %14s %14s %9s\n",
				name, u, formatValue(ov), formatValue(ser[u]), formatPct(pctDelta(ov, ser[u])))
		}
	}
	for _, name := range base.order {
		if _, ok := cur.bench[name]; !ok {
			fmt.Fprintf(w, "%-55s %-14s %14s %14s %9s\n", name, "-", formatValue(base.bench[name]["ns/op"]), "-", "gone")
		}
	}
}

// formatValue renders integral metric values without a fraction and keeps
// four significant digits on fractional ones, echoing go test's style.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// pctDelta is the old→new change in percent; a zero baseline with a
// nonzero new value counts as +100%.
func pctDelta(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return (cur - old) * 100 / old
}

func formatPct(p float64) string {
	return fmt.Sprintf("%+.1f%%", p)
}

// changesNote renders the CHANGES.md one-liner previously emitted by
// scripts/bench-delta.sh, byte-compatible with the historical format —
// except that the baseline is the newest prior recording, not the oldest
// (comparing a fresh run against the repo's first-ever recording made
// every note report cumulative drift instead of this session's delta).
func changesNote(cur, base *suite, newLabel, baseLabel string) string {
	const fig3 = "BenchmarkFig3FullWorkflow"
	day := now().Format("2006-01-02")
	curSer, ok := cur.bench[fig3]
	if !ok {
		return fmt.Sprintf("- bench %s (%s): %s missing from the run.", day, newLabel, fig3)
	}
	curAllocs := int64(curSer["allocs/op"])
	if base == nil {
		return fmt.Sprintf("- bench %s (%s): Fig. 3 full workflow at %d allocs/op (no prior BENCH_*.json to compare against).",
			day, newLabel, curAllocs)
	}
	oldSer, ok := base.bench[fig3]
	if !ok {
		return fmt.Sprintf("- bench %s (%s): Fig. 3 full workflow at %d allocs/op (%s has no Fig. 3 line).",
			day, newLabel, curAllocs, baseLabel)
	}
	oldAllocs := int64(oldSer["allocs/op"])
	return fmt.Sprintf("- bench %s (%s): Fig. 3 full workflow %d -> %d allocs/op (%s vs %s).",
		day, newLabel, oldAllocs, curAllocs,
		formatPct(pctDelta(float64(oldAllocs), float64(curAllocs))), baseLabel)
}

// newestPrior returns the lexicographically greatest BENCH_*.json in dir
// other than newPath itself, or "".
func newestPrior(dir, newPath string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return ""
	}
	sort.Strings(matches)
	newAbs, _ := filepath.Abs(newPath)
	for i := len(matches) - 1; i >= 0; i-- {
		abs, _ := filepath.Abs(matches[i])
		if abs != newAbs && filepath.Base(matches[i]) != filepath.Base(newPath) {
			return matches[i]
		}
	}
	return ""
}

func baseName(path string) string {
	if path == "" {
		return ""
	}
	return filepath.Base(path)
}

// thresholds is the -check configuration: per-unit regression ceilings,
// with optional per-benchmark overrides. MaxIncreasePct gates
// lower-is-better units (allocs/op, B/op, ns/op); MaxDecreasePct gates
// higher-is-better ones (R). A unit absent from both maps is not gated.
type thresholds struct {
	MaxIncreasePct map[string]float64 `json:"max_increase_pct"`
	MaxDecreasePct map[string]float64 `json:"max_decrease_pct"`
	Benchmarks     map[string]struct {
		MaxIncreasePct map[string]float64 `json:"max_increase_pct"`
		MaxDecreasePct map[string]float64 `json:"max_decrease_pct"`
	} `json:"benchmarks"`
}

func loadThresholds(path string) (*thresholds, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	th := &thresholds{}
	if err := json.Unmarshal(b, th); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return th, nil
}

// limits resolves the effective ceilings for one benchmark/unit pair:
// the per-benchmark override when present, the global map otherwise.
func (th *thresholds) limits(bench, unit string) (maxInc, maxDec float64, incOK, decOK bool) {
	if o, ok := th.Benchmarks[bench]; ok {
		if v, ok := o.MaxIncreasePct[unit]; ok {
			maxInc, incOK = v, true
		}
		if v, ok := o.MaxDecreasePct[unit]; ok {
			maxDec, decOK = v, true
		}
	}
	if !incOK {
		maxInc, incOK = th.MaxIncreasePct[unit], mapHas(th.MaxIncreasePct, unit)
	}
	if !decOK {
		maxDec, decOK = th.MaxDecreasePct[unit], mapHas(th.MaxDecreasePct, unit)
	}
	return
}

func mapHas(m map[string]float64, k string) bool {
	_, ok := m[k]
	return ok
}

// checkThresholds compares every benchmark present in both recordings
// against the configured ceilings and describes each breach. A benchmark
// the thresholds name individually but the new recording lacks is a breach
// too: renaming or deleting it must not silently drop its gate.
func checkThresholds(cur, base *suite, th *thresholds) []string {
	var out []string
	named := make([]string, 0, len(th.Benchmarks))
	for name := range th.Benchmarks {
		named = append(named, name)
	}
	sort.Strings(named)
	for _, name := range named {
		if _, ok := cur.bench[name]; !ok {
			out = append(out, fmt.Sprintf("MISSING %s: gated by the thresholds file but absent from the new recording", name))
		}
	}
	for _, name := range cur.order {
		ser := cur.bench[name]
		old, ok := base.bench[name]
		if !ok {
			continue
		}
		for _, u := range unitOrder(ser) {
			ov, has := old[u]
			if !has {
				continue
			}
			maxInc, maxDec, incOK, decOK := th.limits(name, u)
			d := pctDelta(ov, ser[u])
			if incOK && d > maxInc {
				out = append(out, fmt.Sprintf("REGRESSION %s %s: %s -> %s (%s, limit %+.1f%%)",
					name, u, formatValue(ov), formatValue(ser[u]), formatPct(d), maxInc))
			}
			if decOK && d < -maxDec {
				out = append(out, fmt.Sprintf("REGRESSION %s %s: %s -> %s (%s, limit -%.1f%%)",
					name, u, formatValue(ov), formatValue(ser[u]), formatPct(d), maxDec))
			}
		}
	}
	return out
}
