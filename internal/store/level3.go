package store

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/store/reldb"
	"excovery/internal/timesync"
)

// EEVersion is the ExCovery implementation version recorded in
// ExperimentInfo (Table I).
const EEVersion = "excovery-go/1.0"

// Meta is the experiment-level metadata of the ExperimentInfo table.
type Meta struct {
	// ExpXML is the complete level-1 description document.
	ExpXML string
	// Name and Comment describe the experiment.
	Name, Comment string
}

// ExperimentDB is the level-3 single-package representation of one
// complete experiment, using exactly the tables and attributes of Table I.
type ExperimentDB struct {
	DB *reldb.DB
}

// NewExperimentDB creates an empty level-3 database with the Table I
// schema.
func NewExperimentDB() (*ExperimentDB, error) {
	db := reldb.New()
	schemas := []reldb.Schema{
		{Name: "ExperimentInfo", Columns: []reldb.Column{
			{Name: "ExpXML", Type: reldb.Text},
			{Name: "EEVersion", Type: reldb.Text},
			{Name: "Name", Type: reldb.Text},
			{Name: "Comment", Type: reldb.Text},
		}},
		{Name: "Logs", Columns: []reldb.Column{
			{Name: "NodeID", Type: reldb.Text},
			{Name: "Log", Type: reldb.Text},
		}},
		{Name: "EEFiles", Columns: []reldb.Column{
			{Name: "ID", Type: reldb.Text},
			{Name: "File", Type: reldb.Blob},
		}},
		{Name: "ExperimentMeasurements", Columns: []reldb.Column{
			{Name: "ID", Type: reldb.Int64},
			{Name: "NodeID", Type: reldb.Text},
			{Name: "Name", Type: reldb.Text},
			{Name: "Content", Type: reldb.Blob},
		}},
		{Name: "RunInfos", Columns: []reldb.Column{
			{Name: "RunID", Type: reldb.Int64},
			{Name: "NodeID", Type: reldb.Text},
			{Name: "StartTime", Type: reldb.Time},
			{Name: "TimeDiff", Type: reldb.Float64},
		}},
		{Name: "ExtraRunMeasurements", Columns: []reldb.Column{
			{Name: "RunID", Type: reldb.Int64},
			{Name: "NodeID", Type: reldb.Text},
			{Name: "Name", Type: reldb.Text},
			{Name: "Content", Type: reldb.Blob},
		}},
		{Name: "Events", Columns: []reldb.Column{
			{Name: "RunID", Type: reldb.Int64},
			{Name: "NodeID", Type: reldb.Text},
			{Name: "CommonTime", Type: reldb.Time},
			{Name: "EventType", Type: reldb.Text},
			{Name: "Parameter", Type: reldb.Text},
		}},
		{Name: "Packets", Columns: []reldb.Column{
			{Name: "RunID", Type: reldb.Int64},
			{Name: "NodeID", Type: reldb.Text},
			{Name: "CommonTime", Type: reldb.Time},
			{Name: "SrcNodeID", Type: reldb.Text},
			{Name: "Data", Type: reldb.Blob},
		}},
	}
	for _, s := range schemas {
		if err := db.CreateTable(s); err != nil {
			return nil, err
		}
	}
	if err := createRunIndexes(db); err != nil {
		return nil, err
	}
	return &ExperimentDB{DB: db}, nil
}

// runIndexes are the per-run lookup indexes of a level-3 database. They
// are not part of the file (persisting them would change its bytes), so
// both a new and a reopened database build them from this one list.
var runIndexes = [...][2]string{
	{"Events", "RunID"}, {"Packets", "RunID"},
	{"RunInfos", "RunID"}, {"ExtraRunMeasurements", "RunID"},
}

func createRunIndexes(db *reldb.DB) error {
	for _, idx := range runIndexes {
		if err := db.CreateIndex(idx[0], idx[1]); err != nil {
			return err
		}
	}
	return nil
}

// OpenExperimentDB loads a level-3 database file and rebuilds its run
// indexes. Blob values (Packets.Data, measurement contents) alias the
// file buffer; callers must not modify them.
func OpenExperimentDB(path string) (*ExperimentDB, error) {
	db, err := reldb.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if err := createRunIndexes(db); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return &ExperimentDB{DB: db}, nil
}

// Save writes the database to a single file.
func (e *ExperimentDB) Save(path string) error { return e.DB.SaveFile(path) }

// Condition turns the level-2 store into a level-3 database: all local
// timestamps are mapped onto the reference time base using the per-run
// time-sync measurements, then events, packets, logs, run infos and
// measurements are ingested (§IV-F).
func Condition(rs *RunStore, meta Meta) (*ExperimentDB, error) {
	e, err := NewExperimentDB()
	if err != nil {
		return nil, err
	}
	if err := e.DB.Insert("ExperimentInfo", reldb.Row{
		meta.ExpXML, EEVersion, meta.Name, meta.Comment,
	}); err != nil {
		return nil, err
	}
	if meta.ExpXML != "" {
		if err := e.DB.Insert("EEFiles", reldb.Row{"description.xml", []byte(meta.ExpXML)}); err != nil {
			return nil, err
		}
	}

	runs, err := rs.Runs()
	if err != nil {
		return nil, err
	}
	// Runs are loaded and conditioned in parallel; this goroutine alone
	// inserts them, in run order, so the database (and the file Save
	// writes) is the one serial conditioning builds, and the error is the
	// one it returns: that of the first failing run.
	logsByNode := map[string]string{}
	var names sync.Map // node name → its one boxed copy, shared by all rows
	err = orderedFanOut(len(runs), func(i int) *runRows {
		return conditionRun(rs, runs[i], &names)
	}, func(r *runRows) error {
		for _, t := range [...]struct {
			name string
			rows []reldb.Row
		}{
			{"RunInfos", r.infos}, {"Events", r.events},
			{"Packets", r.packets}, {"ExtraRunMeasurements", r.extras},
		} {
			for _, row := range t.rows {
				if err := e.DB.Insert(t.name, row); err != nil {
					return err
				}
			}
		}
		for _, l := range r.logs {
			logsByNode[l.node] += l.log
		}
		return r.err
	})
	if err != nil {
		return nil, err
	}

	nodes := make([]string, 0, len(logsByNode))
	for n := range logsByNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if err := e.DB.Insert("Logs", reldb.Row{n, logsByNode[n]}); err != nil {
			return nil, err
		}
	}

	ems, err := rs.ListExperimentMeasurements()
	if err != nil {
		return nil, err
	}
	for i, m := range ems {
		if err := e.DB.Insert("ExperimentMeasurements", reldb.Row{
			int64(i), m.Node, m.Name, m.Content,
		}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// runRows is one run's share of the level-3 database: its rows in insert
// order per table, its node logs in node order, and the error that ended
// its conditioning early, if any.
type runRows struct {
	infos, events, packets, extras []reldb.Row
	logs                           []nodeLog
	err                            error
}

type nodeLog struct{ node, log string }

// conditionRun reads one run from the level-2 store and builds its rows,
// with every timestamp mapped onto the reference time base. It stops at
// the first error and returns the rows built until then along with it.
// names holds the boxed node names shared across runs.
func conditionRun(rs *RunStore, run int, names *sync.Map) *runRows {
	r := &runRows{}
	info, err := rs.ReadRunInfo(run)
	if err != nil {
		r.err = fmt.Errorf("store: run %d has no runinfo: %w", run, err)
		return r
	}
	runID := any(int64(run))
	offsets := map[string]timesync.Measurement{}
	for _, m := range info.Offsets {
		offsets[m.Node] = m
		r.infos = append(r.infos, reldb.Row{runID, m.Node, info.Start.UTC(), m.Offset.Seconds()})
	}
	correct := func(node string, local time.Time) time.Time {
		if m, ok := offsets[node]; ok {
			return timesync.Correct(local, m).UTC()
		}
		return local.UTC()
	}
	// Node names repeat on every row, and storing a string in a Row boxes
	// it (one allocation); box each distinct name once and share it. The
	// per-run map keeps the shared one off the per-row path.
	boxed := map[string]any{}
	name := func(s string) any {
		v, ok := boxed[s]
		if !ok {
			v, _ = names.LoadOrStore(s, s)
			boxed[s] = v
		}
		return v
	}

	nodes, err := rs.RunNodes(run)
	if err != nil {
		r.err = err
		return r
	}
	for _, node := range nodes {
		err := rs.ForEachEvent(run, node, func(ev *eventlog.Event) error {
			r.events = append(r.events, reldb.Row{
				runID, name(ev.Node), correct(ev.Node, ev.Time),
				ev.Type, encodeParams(ev.Params),
			})
			return nil
		})
		if err != nil {
			r.err = err
			return r
		}
		// The stored line is byte-identical to re-marshaling the decoded
		// record (both sides are encoding/json output of PacketRecord;
		// TestPacketLineMatchesMarshal pins this), so the raw bytes feed
		// the Data column directly and the payload is never re-encoded.
		// The line is a view into the file buffer, which is never
		// reused, so it is stored without a copy.
		err = rs.ForEachPacketLine(run, node, func(t time.Time, src string, line []byte) error {
			r.packets = append(r.packets, reldb.Row{
				runID, name(node), correct(node, t), name(src), line,
			})
			return nil
		})
		if err != nil {
			r.err = err
			return r
		}
		if log, err := rs.ReadLog(run, node); err != nil {
			r.err = err
			return r
		} else if log != "" {
			r.logs = append(r.logs, nodeLog{node, log})
		}
	}
	extras, err := rs.ListExtras(run)
	if err != nil {
		r.err = err
		return r
	}
	for _, x := range extras {
		r.extras = append(r.extras, reldb.Row{int64(x.Run), x.Node, x.Name, x.Content})
	}
	return r
}

// orderedFanOut calls load(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, and consume on the results in index order on the calling
// goroutine. At most twice as many results as workers are in flight. It
// returns consume's first error, after which no further load starts; no
// goroutine outlives the call.
func orderedFanOut[T any](n int, load func(int) T, consume func(T) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	window := 2 * workers
	// At most window jobs are dispatched and not yet consumed, so with
	// this buffer the dispatch below never blocks the consumer.
	jobs := make(chan int, window)
	slots := make([]chan T, window) // result i travels in slots[i%window]
	for i := range slots {
		slots[i] = make(chan T, 1)
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(quit)
		close(jobs)
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				select {
				case <-quit:
					return
				default:
				}
				slots[i%window] <- load(i)
			}
		}()
	}
	next := 0
	for i := 0; i < n; i++ {
		// Slot i%window is free again: result i-window was consumed.
		for ; next < n && next < i+window; next++ {
			jobs <- next
		}
		if err := consume(<-slots[i%window]); err != nil {
			return err
		}
	}
	return nil
}

// DecodeParams parses a Parameter column value.
func DecodeParams(s string) map[string]string {
	if s == "" {
		return nil
	}
	var m map[string]string
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		return nil
	}
	return m
}

// Info returns the ExperimentInfo tuple.
func (e *ExperimentDB) Info() (Meta, error) {
	row, ok, err := e.DB.SelectOne(reldb.Query{Table: "ExperimentInfo"})
	if err != nil || !ok {
		return Meta{}, fmt.Errorf("store: no ExperimentInfo (%v)", err)
	}
	return Meta{ExpXML: row[0].(string), Name: row[2].(string), Comment: row[3].(string)}, nil
}

// RunIDs returns the distinct run ids in the Events table, sorted.
func (e *ExperimentDB) RunIDs() ([]int, error) {
	rows, err := e.DB.Select(reldb.Query{Table: "RunInfos"})
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	var out []int
	for _, r := range rows {
		id := int(r[0].(int64))
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out, nil
}

// EventsOfRun returns the conditioned events of one run ordered by common
// time.
func (e *ExperimentDB) EventsOfRun(run int) ([]eventlog.Event, error) {
	rows, err := e.DB.Select(reldb.Query{
		Table:   "Events",
		Where:   []reldb.Pred{reldb.Eq("RunID", int64(run))},
		OrderBy: "CommonTime",
	})
	if err != nil {
		return nil, err
	}
	out := make([]eventlog.Event, len(rows))
	for i, r := range rows {
		out[i] = eventlog.Event{
			Run:    int(r[0].(int64)),
			Node:   r[1].(string),
			Time:   r[2].(time.Time),
			Type:   r[3].(string),
			Params: DecodeParams(r[4].(string)),
		}
	}
	return out, nil
}

// ExtrasOfRun returns the plugin/extra measurements of one run (e.g. the
// master's trace.json execution trace).
func (e *ExperimentDB) ExtrasOfRun(run int) ([]ExtraMeasurement, error) {
	rows, err := e.DB.Select(reldb.Query{
		Table: "ExtraRunMeasurements",
		Where: []reldb.Pred{reldb.Eq("RunID", int64(run))},
	})
	if err != nil {
		return nil, err
	}
	out := make([]ExtraMeasurement, len(rows))
	for i, r := range rows {
		out[i] = ExtraMeasurement{
			Run:     int(r[0].(int64)),
			Node:    r[1].(string),
			Name:    r[2].(string),
			Content: r[3].([]byte),
		}
	}
	return out, nil
}

// PacketsOfRun returns the conditioned packet records of one run ordered
// by common time.
func (e *ExperimentDB) PacketsOfRun(run int) ([]PacketRecord, error) {
	rows, err := e.DB.Select(reldb.Query{
		Table:   "Packets",
		Where:   []reldb.Pred{reldb.Eq("RunID", int64(run))},
		OrderBy: "CommonTime",
	})
	if err != nil {
		return nil, err
	}
	out := make([]PacketRecord, len(rows))
	for i, r := range rows {
		var p PacketRecord
		if err := json.Unmarshal(r[4].([]byte), &p); err != nil {
			return nil, err
		}
		p.Time = r[2].(time.Time) // conditioned common time
		p.Node = r[1].(string)    // capturing node
		out[i] = p
	}
	return out, nil
}
