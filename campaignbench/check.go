package main

import (
	"fmt"

	"excovery/internal/desc"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/store"
	"excovery/internal/store/reldb"
)

// verify checks one campaign's outputs against the master's Report:
//   - every planned run is reported, as completed or failed;
//   - the reopened level-3 file holds, for every completed run, as many
//     RunInfos rows as the Report has clock offsets and as many Events rows
//     as the Report has events of that run, and no rows of runs the Report
//     does not know;
//   - metrics.FromDB on the reopened file gives every completed run the
//     same completion and t_R as metrics.FromReport.
//
// Events are attributed by their own run id, not by the result they sit
// in: on the rpc deployment a run's tail events (sd_exit_done, run_exit)
// reach the master's bus by asynchronous push during the next run, so the
// final run's tail never reaches the Report at all. With tailLag the last
// completed run may therefore hold more level-3 rows than the Report has
// events; every other run must match exactly.
//
// It also returns how many Report events carry no run id of the plan: the
// environment executor publishes env_traffic_start and env_traffic_stop
// straight onto the bus with run -2, so they reach the Report but no
// level-3 row.
func verify(e *desc.Experiment, rep *master.Report, rdb *store.ExperimentDB, fromDB []metrics.RunMetric, tailLag bool) (unrun int, err error) {
	planned := len(rep.Plan.Runs)
	if len(rep.Results) != planned || rep.Completed+rep.Failed+rep.Skipped != planned {
		return 0, fmt.Errorf("%d of %d planned runs reported (%d completed, %d failed, %d skipped)",
			len(rep.Results), planned, rep.Completed, rep.Failed, rep.Skipped)
	}
	completed := map[int]master.RunResult{}
	known := map[int]bool{}
	last := -1
	for _, rr := range rep.Results {
		known[rr.Run.ID] = true
		if !rr.Skipped && rr.Err == nil && !rr.Aborted {
			completed[rr.Run.ID] = rr
			last = rr.Run.ID
		}
	}
	events := map[int]int{}
	for _, rr := range rep.Results {
		for _, ev := range rr.Events {
			if known[ev.Run] {
				events[ev.Run]++
			} else {
				unrun++
			}
		}
	}
	for _, table := range []string{"Events", "RunInfos"} {
		rows, err := rowsPerRun(rdb, table)
		if err != nil {
			return 0, err
		}
		for run := range rows {
			if !known[run] {
				return 0, fmt.Errorf("level-3 %s holds rows of run %d, which the Report does not know", table, run)
			}
		}
		for id, rr := range completed {
			want := len(rr.Offsets)
			if table == "Events" {
				want = events[id]
				if tailLag && id == last && rows[id] > want {
					want = rows[id]
				}
			}
			if rows[id] != want {
				return 0, fmt.Errorf("run %d: level-3 %s has %d rows, the Report %d", id, table, rows[id], want)
			}
		}
	}
	fromRep := map[int]metrics.RunMetric{}
	for _, m := range metrics.FromReport(e, rep, "", "") {
		fromRep[m.RunID] = m
	}
	seen := 0
	for _, m := range fromDB {
		if _, ok := completed[m.RunID]; !ok {
			continue
		}
		seen++
		want := fromRep[m.RunID]
		if m.Complete != want.Complete || m.TR != want.TR {
			return 0, fmt.Errorf("run %d: FromDB gives complete=%v t_R=%s, FromReport complete=%v t_R=%s",
				m.RunID, m.Complete, m.TR, want.Complete, want.TR)
		}
	}
	if seen != len(completed) {
		return 0, fmt.Errorf("FromDB covers %d of %d completed runs", seen, len(completed))
	}
	return unrun, nil
}

// rowsPerRun counts a level-3 table's rows by RunID.
func rowsPerRun(db *store.ExperimentDB, table string) (map[int]int, error) {
	rows, err := db.DB.Select(reldb.Query{Table: table})
	if err != nil {
		return nil, err
	}
	out := map[int]int{}
	for _, r := range rows {
		out[int(r[0].(int64))]++
	}
	return out, nil
}
