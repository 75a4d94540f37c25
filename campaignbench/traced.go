package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/obs"
	"excovery/internal/store"
)

// layerUnits lists every per-layer metric of the traced run with its unit.
var layerUnits = map[string]string{
	"desc.validate_plan_ms":           "ms",
	"desc.parse_ms":                   "ms",
	"sched.timers_fired_per_run":      "count",
	"sched.switches_per_run":          "count",
	"netem.sent_per_run":              "count",
	"netem.delivered_per_run":         "count",
	"netem.dropped_per_run":           "count",
	"netem.exec_us_per_delivery":      "us",
	"eventlog.published_per_run":      "count",
	"master.attempts_per_run":         "count",
	"master.journal_records_per_run":  "count",
	"master.run_fail_ratio":           "ratio",
	"master.runs_timed":               "count",
	"master.unstored_events_per_run":  "count",
	"store.stage_commit_ms":           "ms",
	"store.mark_done_ms":              "ms",
	"store.journal_append_us":         "us",
	"store.files_per_run":             "count",
	"store.bytes_per_run":             "bytes",
	"store.condition_s":               "s",
	"store.rows_ingested":             "count",
	"store.condition_us_per_row":      "us",
	"store.save_s":                    "s",
	"store.db_mb":                     "MiB",
	"store.open_s":                    "s",
	"store.disk_run_s":                "s",
	"reldb.events_of_run_fresh_ms":    "ms",
	"reldb.events_of_run_reopened_ms": "ms",
	"xmlrpc.calls_per_run":            "count",
	"xmlrpc.retries_per_run":          "count",
	"noderpc.prepare_ms":              "ms",
	"noderpc.cleanup_ms":              "ms",
	"noderpc.localtime_ms":            "ms",
	"noderpc.harvest_ms":              "ms",
	"trace.overhead_s":                "s",
}

// benchTraced is the per-layer run. It alternates untraced and traced
// campaigns until the budget is spent (tracing overhead is the difference
// of their median campaign_s), then replays the last traced campaign's
// artifacts through the store, reldb and desc layers, and finally repeats
// oneshot-campaign once with its store on the checkout's filesystem.
func benchTraced(cfg config) (*result, error) {
	deadline := wallNow().Add(cfg.budget)
	s := newSession(cfg)
	tr := obs.NewTracer(nil)
	root := tr.Begin(0, "bench", "workload", cfg.w.name, -1, 0, nil)
	sp := tr.Begin(root, "bench", "untraced", "warm-up campaign", -1, 0, nil)
	_, err := s.campaign(nil)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	var plain, traced []float64
	var layers []map[string]float64
	var last *probe
	defer func() {
		if last != nil {
			os.RemoveAll(last.kept.dir)
		}
	}()
	for len(layers) < 1 || wallNow().Before(deadline) {
		sp := tr.Begin(root, "bench", "untraced", "untraced campaign", -1, 0, nil)
		c, err := s.campaign(nil)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		plain = append(plain, c.total.Seconds())
		p := newProbe(tr, root, cfg.w.rpc)
		c, err = s.campaign(p)
		if err != nil {
			return nil, err
		}
		traced = append(traced, c.total.Seconds())
		layers = append(layers, p.layerMetrics(c))
		if last != nil {
			os.RemoveAll(last.kept.dir)
		}
		last = p
	}
	m := map[string]float64{}
	for name := range layers[0] {
		var xs []float64
		for _, l := range layers {
			xs = append(xs, l[name])
		}
		m[name] = median(xs)
	}
	m["trace.overhead_s"] = median(traced) - median(plain)

	k := last.kept
	sp = tr.Begin(root, "bench", "store", "level-2 replay", -1, 0, nil)
	err = replayLevel2(&store.RunStore{Dir: k.storeDir}, filepath.Join(k.dir, "replay"), m)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("level-2 replay: %w", err)
	}
	sp = tr.Begin(root, "bench", "reldb", "events of run", -1, 0, nil)
	err = timeEventsOfRun(k, m)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(root, "bench", "desc", "validate, plan, parse", -1, 0, nil)
	err = timeDesc(cfg, k, m)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Begin(root, "bench", "disk", "oneshot-campaign, store on disk", -1, 0, nil)
	err = diskProbe(cfg, s, m)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("disk probe: %w", err)
	}
	tr.End(root)

	spans := tr.Spans()
	out := filepath.Join(cfg.diskDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := os.WriteFile(out, obs.ChromeTrace(spans), 0o644); err != nil {
		return nil, err
	}
	printSelfTimes(cfg, spans, out)
	fmt.Fprintf(cfg.log, "%s seed %d: %d untraced and %d traced campaigns, tracing overhead %+.4f s per campaign\n",
		cfg.w.name, cfg.seed, len(plain), len(traced), m["trace.overhead_s"])

	res := &result{Correct: s.err == nil, Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]metricValue{}}
	for name, unit := range layerUnits {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = metricValue{v, unit}
	}
	return res, nil
}

// layerMetrics derives the per-layer counts and timings of one traced
// campaign. Metrics of layers the workload does not use (the control
// channel on the emulated platform) read 0.
func (p *probe) layerMetrics(c *campaign) map[string]float64 {
	k := p.kept
	runs := float64(len(k.rep.Plan.Runs))
	var runTime time.Duration
	for _, d := range c.runs {
		runTime += d
	}
	perDelivery := 0.0
	if k.net.Delivered > 0 {
		perDelivery = float64(runTime.Microseconds()) / float64(k.net.Delivered)
	}
	rows := 0
	for _, t := range k.fresh.DB.Tables() {
		n, _ := k.fresh.DB.Count(t) // t comes from Tables, so it exists
		rows += n
	}
	dbBytes := int64(0)
	if st, err := os.Stat(k.path); err == nil {
		dbBytes = st.Size()
	}
	cs := p.clientStats()
	return map[string]float64{
		"sched.timers_fired_per_run":     float64(p.reg.CounterTotal(obs.MSchedTimersFired)) / runs,
		"sched.switches_per_run":         float64(p.reg.CounterTotal(obs.MSchedSwitches)) / runs,
		"netem.sent_per_run":             float64(k.net.Sent) / runs,
		"netem.delivered_per_run":        float64(k.net.Delivered) / runs,
		"netem.dropped_per_run":          float64(k.net.DroppedTotal()) / runs,
		"netem.exec_us_per_delivery":     perDelivery,
		"eventlog.published_per_run":     float64(p.mreg.CounterTotal(obs.MEventbusPublished)) / runs,
		"master.attempts_per_run":        float64(p.mreg.CounterTotal(obs.MRunAttempts)) / runs,
		"master.journal_records_per_run": float64(p.mreg.CounterTotal(obs.MJournalRecords)) / runs,
		"master.run_fail_ratio":          (runs - float64(k.rep.Completed)) / runs,
		"master.runs_timed":              float64(len(c.runs)),
		"master.unstored_events_per_run": float64(k.unrun) / runs,
		"store.condition_s":              k.condition.Seconds(),
		"store.rows_ingested":            float64(rows),
		"store.condition_us_per_row":     float64(k.condition.Microseconds()) / float64(rows),
		"store.save_s":                   k.save.Seconds(),
		"store.db_mb":                    float64(dbBytes) / (1 << 20),
		"store.open_s":                   k.open.Seconds(),
		"xmlrpc.calls_per_run":           float64(cs.Calls) / runs,
		"xmlrpc.retries_per_run":         float64(cs.Retries) / runs,
		"noderpc.prepare_ms":             p.callMs("node.prepare_run"),
		"noderpc.cleanup_ms":             p.callMs("node.cleanup_run"),
		"noderpc.localtime_ms":           p.callMs("node.local_time"),
		"noderpc.harvest_ms":             p.callMs("node.harvest_events", "node.harvest_packets", "node.harvest_extras"),
	}
}

// runHarvest is one run's level-2 content, read back from a store.
type runHarvest struct {
	run    int
	nodes  []nodeHarvest
	extras []store.ExtraMeasurement
	info   store.RunInfo
}

type nodeHarvest struct {
	id         string
	events     []eventlog.Event
	packets    []store.PacketRecord
	hasPackets bool
}

func readHarvest(src *store.RunStore, run int) (*runHarvest, error) {
	h := &runHarvest{run: run}
	ids, err := src.RunNodes(run)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		nh := nodeHarvest{id: id}
		if nh.events, err = src.ReadEvents(run, id); err != nil {
			return nil, err
		}
		// The committer writes a packet file for every platform node and
		// none for the master's own "env" events; replay the same files.
		_, err := os.Stat(filepath.Join(src.Dir, "runs", strconv.Itoa(run), id, "packets.jsonl"))
		nh.hasPackets = err == nil
		if nh.packets, err = src.ReadPackets(run, id); err != nil {
			return nil, err
		}
		h.nodes = append(h.nodes, nh)
	}
	if h.extras, err = src.ListExtras(run); err != nil {
		return nil, err
	}
	if h.info, err = src.ReadRunInfo(run); err != nil {
		return nil, err
	}
	return h, nil
}

// commit writes the harvest the way the master's committer does: into a
// staging area, then one atomic commit.
func (h *runHarvest) commit(dst *store.RunStore) error {
	sr, err := dst.StageRun(h.run)
	if err != nil {
		return err
	}
	st := sr.Store()
	for _, nh := range h.nodes {
		if err := st.WriteEvents(h.run, nh.id, nh.events); err != nil {
			sr.Abort()
			return err
		}
		if nh.hasPackets {
			if err := st.WritePackets(h.run, nh.id, nh.packets); err != nil {
				sr.Abort()
				return err
			}
		}
	}
	for _, x := range h.extras {
		if err := st.WriteExtra(h.run, x.Node, x.Name, x.Content); err != nil {
			sr.Abort()
			return err
		}
	}
	if err := st.WriteRunInfo(h.info); err != nil {
		sr.Abort()
		return err
	}
	if err := sr.Commit(); err != nil {
		sr.Abort()
		return err
	}
	return nil
}

// replayLevel2 times the level-2 write path on the workload's own harvest:
// every run of src is read back, then journaled, staged, committed and
// marked done in a fresh store at dst.
func replayLevel2(src *store.RunStore, dst string, m map[string]float64) (err error) {
	out, err := store.NewRunStore(dst)
	if err != nil {
		return err
	}
	j, err := store.OpenJournal(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}()
	runs, err := src.Runs()
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("no runs in %s", src.Dir)
	}
	var stage, mark, jrnl []float64
	timeJournal := func(fn func() error) error {
		t := wallNow()
		err := fn()
		jrnl = append(jrnl, float64(time.Since(t))/1e3)
		return err
	}
	files, size := 0, int64(0)
	for _, run := range runs {
		h, err := readHarvest(src, run)
		if err != nil {
			return err
		}
		if err := timeJournal(func() error { return j.Begin(run, 1, int64(run), 0) }); err != nil {
			return err
		}
		t := wallNow()
		if err := h.commit(out); err != nil {
			return err
		}
		stage = append(stage, float64(time.Since(t))/1e6)
		if err := timeJournal(func() error { return j.End(run, 1, "ok", "") }); err != nil {
			return err
		}
		t = wallNow()
		if err := out.MarkRunDone(run); err != nil {
			return err
		}
		mark = append(mark, float64(time.Since(t))/1e6)
		if err := timeJournal(func() error { return j.Done(run) }); err != nil {
			return err
		}
		n, b, err := treeSize(filepath.Join(src.Dir, "runs", strconv.Itoa(run)))
		if err != nil {
			return err
		}
		files += n
		size += b
	}
	m["store.stage_commit_ms"] = median(stage)
	m["store.mark_done_ms"] = median(mark)
	m["store.journal_append_us"] = median(jrnl)
	m["store.files_per_run"] = float64(files) / float64(len(runs))
	m["store.bytes_per_run"] = float64(size) / float64(len(runs))
	return nil
}

// treeSize counts the regular files below root and their bytes.
func treeSize(root string) (files int, size int64, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += info.Size()
		return nil
	})
	return files, size, err
}

// timeEventsOfRun times ExperimentDB.EventsOfRun over every run, on the
// database Finalize returned and on the same data reopened from its file.
func timeEventsOfRun(k kept, m map[string]float64) error {
	ids, err := k.fresh.RunIDs()
	if err != nil {
		return err
	}
	reopened, err := store.OpenExperimentDB(k.path)
	if err != nil {
		return err
	}
	perRun := func(db *store.ExperimentDB) (float64, error) {
		var passes []float64
		for pass := 0; pass < 3; pass++ {
			t := wallNow()
			for _, id := range ids {
				if _, err := db.EventsOfRun(id); err != nil {
					return 0, err
				}
			}
			passes = append(passes, float64(time.Since(t))/1e6/float64(len(ids)))
		}
		return median(passes), nil
	}
	if m["reldb.events_of_run_fresh_ms"], err = perRun(k.fresh); err != nil {
		return err
	}
	m["reldb.events_of_run_reopened_ms"], err = perRun(reopened)
	return err
}

// timeDesc times Validate+GeneratePlan on the workload's description and
// ParseString on the document stored in the level-3 file (the first step
// of metrics.FromDB).
func timeDesc(cfg config, k kept, m map[string]float64) error {
	info, err := k.fresh.Info()
	if err != nil {
		return err
	}
	const reps = 20
	var plan, parse []float64
	for i := 0; i < reps; i++ {
		e := cfg.w.describe(len(k.rep.Plan.Runs))
		t := wallNow()
		if err := desc.Validate(e); err != nil {
			return err
		}
		if _, err := desc.GeneratePlan(e); err != nil {
			return err
		}
		plan = append(plan, float64(time.Since(t))/1e6)
		t = wallNow()
		if _, err := desc.ParseString(info.ExpXML); err != nil {
			return err
		}
		parse = append(parse, float64(time.Since(t))/1e6)
	}
	m["desc.validate_plan_ms"] = median(plan)
	m["desc.parse_ms"] = median(parse)
	return nil
}

// diskProbe repeats oneshot-campaign once with its level-2 store and
// level-3 file on the checkout's filesystem. Its fsync cost drifts with
// the shared disk, so store.disk_run_s is reported but gates nothing.
func diskProbe(cfg config, s *session, m map[string]float64) error {
	w, _ := workloadByName("oneshot-campaign")
	dcfg := cfg
	dcfg.w = w
	dir, err := os.MkdirTemp(cfg.diskDir, "disk-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds := newSession(dcfg)
	c, err := ds.campaignIn(dir, nil)
	if err != nil {
		return err
	}
	if ds.err != nil {
		s.fail(ds.err)
	}
	m["store.disk_run_s"] = c.total.Seconds()
	return nil
}

// printSelfTimes prints each span category's self time: its spans'
// durations minus the part their child spans cover.
func printSelfTimes(cfg config, spans []obs.Span, path string) {
	children := map[uint64][]obs.Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	var total time.Duration
	for _, sp := range spans {
		d := sp.Duration() - covered(sp, children[sp.ID])
		self[sp.Cat] += d
		count[sp.Cat]++
		total += d
	}
	cats := make([]string, 0, len(self))
	for c := range self {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return self[cats[i]] > self[cats[j]] })
	fmt.Fprintf(cfg.log, "per-layer self time (%d spans, Chrome trace in %s):\n", len(spans), path)
	fmt.Fprintf(cfg.log, "  %-10s %8s %12s %7s\n", "layer", "spans", "self_s", "share")
	for _, c := range cats {
		fmt.Fprintf(cfg.log, "  %-10s %8d %12.4f %6.1f%%\n", c, count[c], self[c].Seconds(),
			100*float64(self[c])/float64(total))
	}
}

// covered returns how much of parent's interval its children cover; the
// union is taken because fanned-out children overlap.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var sum time.Duration
	var curStart, curEnd time.Time
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.IsZero() || e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if s.After(curEnd) {
			sum += curEnd.Sub(curStart)
			curStart, curEnd = s, e
		} else if e.After(curEnd) {
			curEnd = e
		}
	}
	return sum + curEnd.Sub(curStart)
}
