package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWriteFaults: every injected fault fails Write with its error, leaves
// the previous file byte for byte and removes the temporary file; with no
// fault armed, Write replaces the file and leaves nothing else behind.
func TestWriteFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault Fault
		want  error
	}{
		{"short write", ShortWrite, io.ErrShortWrite},
		{"no space", NoSpace, syscall.ENOSPC},
		{"rename", RenameFails, syscall.EIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			if err := Write(path, []byte("old contents")); err != nil {
				t.Fatal(err)
			}
			disarm := Inject("state.json", 1, tc.fault)
			if err := Write(path, []byte("spared write")); err != nil {
				t.Fatalf("spared write: %v", err)
			}
			err := Write(path, []byte("new contents that never land"))
			disarm()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Write: %v, want %v", err, tc.want)
			}
			mustHold(t, dir, path, "spared write")
			if err := Write(path, []byte("after disarm")); err != nil {
				t.Fatal(err)
			}
			mustHold(t, dir, path, "after disarm")
		})
	}
}

// TestInjectMatchesSuffix: a fault armed for one file spares the others.
func TestInjectMatchesSuffix(t *testing.T) {
	dir := t.TempDir()
	disarm := Inject("registry.json", 0, NoSpace)
	defer disarm()
	path := filepath.Join(dir, "status.json")
	if err := Write(path, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	mustHold(t, dir, path, "ok")
}

// mustHold fails unless path holds want and dir holds no other file.
func mustHold(t *testing.T, dir, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil || string(got) != want {
		t.Fatalf("%s holds %q (%v), want %q", path, got, err, want)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only %s", names, filepath.Base(path))
	}
}
