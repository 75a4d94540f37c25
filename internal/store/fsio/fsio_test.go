package fsio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Overwrite must replace the content and leave no temp files behind.
	if err := WriteFileAtomic(path, []byte("v2-longer")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "v2-longer" {
		t.Fatalf("read back: %q, %v", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "f.bin" {
		t.Fatalf("leftover files in %s: %v", dir, entries)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	// The contract requires the containing directory to exist: callers
	// (store.atomicWriteFile) decide whether to create it.
	path := filepath.Join(t.TempDir(), "missing", "f.bin")
	if err := WriteFileAtomic(path, []byte("x")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestWriteAtomicStreams(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	err := WriteAtomic(path, func(w io.Writer) error {
		for _, chunk := range []string{"a", "bc", "def"} {
			if _, err := io.WriteString(w, chunk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "abcdef" {
		t.Fatalf("read back: %q, %v", b, err)
	}
}

func TestWriteAtomicFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-written")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("previous file damaged: %q, %v", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
}
