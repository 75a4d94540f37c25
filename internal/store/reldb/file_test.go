package reldb

import (
	"bytes"
	"io"
	"testing"
	"time"
)

func TestSaveRejectsUnsupportedType(t *testing.T) {
	if _, err := appendValue(nil, struct{}{}); err == nil {
		t.Fatal("struct value persisted")
	}
	// Insert type-checks rows, so plant the value behind its back: Save
	// must report it instead of writing a file Load cannot read.
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Int64}}})
	db.tables["T"].rows = append(db.tables["T"].rows, Row{struct{}{}})
	if err := db.Save(io.Discard); err == nil {
		t.Fatal("Save persisted a struct value")
	}
}

func TestLoadBadMagic(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Int64}}})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	copy(data, "BADMAG!")
	// Recompute nothing: the checksum now mismatches, which is the
	// expected first line of defence.
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestLoadTruncated(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Text}}})
	for i := 0; i < 10; i++ {
		db.Insert("T", Row{"some text value"})
	}
	var buf bytes.Buffer
	db.Save(&buf)
	data := buf.Bytes()
	for _, cut := range []int{1, 8, len(data) / 2, len(data) - 5} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(t.TempDir() + "/nope.xcdb"); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestSaveFileBadPath(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Int64}}})
	if err := db.SaveFile("/nonexistent-dir-xyz/f.xcdb"); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestTimePrecisionPreserved(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "t", Type: Time}}})
	want := time.Date(2014, 5, 19, 23, 59, 59, 999999999, time.UTC)
	db.Insert("T", Row{want})
	var buf bytes.Buffer
	db.Save(&buf)
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := db2.Select(Query{Table: "T"})
	if got := rows[0][0].(time.Time); !got.Equal(want) {
		t.Fatalf("time = %v, want %v (nanosecond precision)", got, want)
	}
}

func TestEmptyDatabaseRoundTrip(t *testing.T) {
	db := New()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Tables()) != 0 {
		t.Fatalf("tables = %v", db2.Tables())
	}
}

func TestLoadedBlobsAreCapacityClipped(t *testing.T) {
	db := New()
	db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "b", Type: Blob}}})
	db.Insert("T", Row{[]byte("first")})
	db.Insert("T", Row{[]byte("second")})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := db2.Select(Query{Table: "T"})
	// Blobs alias the file buffer; appending to one must reallocate, not
	// overwrite the bytes that follow it.
	_ = append(rows[0][0].([]byte), "XXXXXXXXXX"...)
	if got := string(rows[1][0].([]byte)); got != "second" {
		t.Fatalf("second blob = %q after appending to the first", got)
	}
}
