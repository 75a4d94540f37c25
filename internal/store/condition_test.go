package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"excovery/internal/eventlog"
	"excovery/internal/netem"
	"excovery/internal/timesync"
)

// fillRuns builds an n-run, two-node level-2 store; every run carries
// events, packet captures with a routed path, a log line and an extra.
func fillRuns(t *testing.T, n int) *RunStore {
	t.Helper()
	rs, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < n; run++ {
		start := base.Add(time.Duration(run) * time.Minute)
		if err := rs.WriteRunInfo(RunInfo{Run: run, Start: start, Offsets: []timesync.Measurement{
			{Node: "A", Offset: 0}, {Node: "B", Offset: time.Duration(run) * time.Millisecond},
		}}); err != nil {
			t.Fatal(err)
		}
		for _, node := range []string{"A", "B"} {
			ev := eventlog.Event{Run: run, Node: node, Time: start.Add(time.Second), Type: "sd_start_search",
				Params: map[string]string{"run": strconv.Itoa(run)}}
			if err := rs.WriteEvents(run, node, []eventlog.Event{ev}); err != nil {
				t.Fatal(err)
			}
			var pkts []PacketRecord
			for i := 0; i < 3; i++ {
				pkts = append(pkts, PacketRecord{Time: start.Add(time.Duration(i) * time.Millisecond),
					Dir: "rx", Node: node, ID: uint64(i), Src: "A", Dst: "mcast:mdns",
					Data: []byte("query " + node), Path: []netem.NodeID{"A", netem.NodeID(node)}})
			}
			if err := rs.WritePackets(run, node, pkts); err != nil {
				t.Fatal(err)
			}
			if err := rs.AppendLog(run, node, "run "+strconv.Itoa(run)+"\n"); err != nil {
				t.Fatal(err)
			}
		}
		if err := rs.WriteExtra(run, "B", "cpu.txt", []byte(strconv.Itoa(run))); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func packetsPath(rs *RunStore, run int, node string) string {
	return filepath.Join(rs.runDir(run, node), "packets.jsonl")
}

// TestMalformedPacketLinesAreErrors: a packets.jsonl line that does not
// hold exactly one JSON value is an error naming the file, and neither
// ForEachPacketLine's fn nor the level-3 database ever sees that line.
// A line with two values used to pass silently: the file-wide decoder
// fell out of step with the line scan and stored the next line's blob
// under this line's time and source.
func TestMalformedPacketLinesAreErrors(t *testing.T) {
	good := func(src string) string {
		b, err := json.Marshal(PacketRecord{Time: base, Dir: "rx", Src: src, Dst: "B", Data: []byte(src)})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// Split between two members, so each half is whitespace-separated
	// JSON to a streaming decoder.
	b := good("b")
	head, tail := b[:strings.Index(b, `"id"`)], b[strings.Index(b, `"id"`):]
	for _, tc := range []struct{ name, content, bad string }{
		{"two values on one line", good("a") + "\n" + b + good("c") + "\n" + good("d") + "\n", b + good("c")},
		{"value split across lines", good("a") + "\n" + head + "\n" + tail + "\n", head},
		{"torn final line", good("a") + "\n" + head, head},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := fillRuns(t, 1)
			path := packetsPath(rs, 0, "B")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			var seen []string
			err := rs.ForEachPacketLine(0, "B", func(_ time.Time, src string, line []byte) error {
				seen = append(seen, string(line))
				var p PacketRecord
				if err := json.Unmarshal(line, &p); err != nil || p.Src != src {
					t.Errorf("fn got line %q with src %q", line, src)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("ForEachPacketLine error = %v, want one naming %s", err, path)
			}
			for _, line := range seen {
				if strings.Contains(tc.bad, line) {
					t.Errorf("fn was handed the malformed line %q", line)
				}
			}
			if _, err := Condition(rs, Meta{Name: "bad"}); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("Condition error = %v, want one naming %s", err, path)
			}
		})
	}
}

// TestConditionFirstErrorInRunOrder corrupts runs 3 and 7 of a ten-run
// store: conditioning must fail with run 3's error, the one a serial pass
// meets first, whatever the worker count, and leave no worker running.
func TestConditionFirstErrorInRunOrder(t *testing.T) {
	rs := fillRuns(t, 10)
	for _, run := range []int{3, 7} {
		f, err := os.OpenFile(packetsPath(rs, run, "A"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"time":"2014-05-19T12:00:00Z","src":"A"}{}` + "\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	want := packetsPath(rs, 3, "A")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		_, err := Condition(rs, Meta{Name: "corrupt"})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("GOMAXPROCS=%d: error = %v, want run 3's (%s)", procs, err, want)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("GOMAXPROCS=%d: error %q, serial error %q", procs, err, first)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after Condition, %d before", procs, n, before)
		}
	}
}

// TestConditionParallelMatchesSerial: the level-3 bytes do not depend on
// how many workers condition the runs.
func TestConditionParallelMatchesSerial(t *testing.T) {
	rs := fillRuns(t, 10)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serial []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		e, err := Condition(rs, Meta{ExpXML: "<x/>", Name: "fan-out"})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.DB.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), serial) {
			t.Fatalf("GOMAXPROCS=%d: level-3 bytes differ from the serial pass", procs)
		}
	}
}

// FuzzPacketMeta holds decodePacketMeta to json.Unmarshal into
// packetMeta: it accepts a line exactly when json.Valid and Unmarshal
// both do, and then yields the same time (equal instant, same zone) and
// source. Seeds are real packets.jsonl lines plus every shape that
// leaves the short path.
func FuzzPacketMeta(f *testing.F) {
	rs, err := NewRunStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	ts := time.Date(2014, 5, 19, 12, 0, 0, 123456789, time.UTC)
	if err := rs.WritePackets(0, "n", []PacketRecord{
		{Time: ts, Dir: "rx", Node: "n", ID: 7, Tag: 3, Src: "a", Dst: "mcast:mdns",
			Data: []byte{0, 0xff, '<'}, Path: []netem.NodeID{"a", "n"}},
		{Time: ts, Dir: "tx", ID: 8, Src: "n", Dst: "b"},
	}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(packetsPath(rs, 0, "n"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		f.Add(line)
	}
	const tm = `"time":"2014-05-19T12:00:00.5Z"`
	for _, s := range []string{
		`{` + tm + `,"src":"a","dst":"b","src":"c"}`, // later duplicate
		`{` + tm + `,"time":"2015-01-01T00:00:00Z","src":"a"}`,
		`{"time":"not a time","time":"2015-01-01T00:00:00Z","src":"a"}`,
		`{` + tm + `,"SRC":"a"}`, // case-folded
		`{"TiMe":"2014-05-19T12:00:00Z","src":"a"}`,
		`{` + tm + `,"ſrc":"a"}`,      // folds to "SRC" in encoding/json
		`{` + tm + `,"\u0073rc":"a"}`, // escaped key
		`{"time":null,"src":"a"}`,
		`{"time":"2014-05-19T12:00:00.5+02:00","src":"a"}`,
		`{"time":"not a time","src":"a"}`,
		`{"time":"2014-05-19T12:00:00Z","src":"a"}`,
		`{` + tm + `,"path":["a",{"b":[1,"]"]}],"src":"a"}`, // nested value before src
		`{` + tm + `,"src":"é\""}`,
		"{" + tm + `,"src":"` + "\xff" + `"}`,
		`{` + tm + `,"src":1}`,
		`{ ` + tm + ` , "src" : "a" }`,
		`{` + tm + `,"src":"a"}{}`,
		`{}`, `null`, `[]`, `12`, `"x"`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := decodePacketMeta(line)
		var want packetMeta
		wantErr := json.Unmarshal(line, &want)
		if accept := json.Valid(line) && wantErr == nil; (err == nil) != accept {
			t.Fatalf("%q: error %v, json.Unmarshal error %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		gz, goff := got.Time.Zone()
		wz, woff := want.Time.Zone()
		if !got.Time.Equal(want.Time) || gz != wz || goff != woff ||
			got.Time.Location().String() != want.Time.Location().String() || got.Src != want.Src {
			t.Fatalf("%q: got (%v, %q), json.Unmarshal (%v, %q)", line, got.Time, got.Src, want.Time, want.Src)
		}
	})
}
