package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
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

// TestWriteReplacesByExchange reports which way a Write replaced a file:
// on linux amd64, 386 and arm64 it must be the exchange, and a Write to a
// fresh path renames because the exchange finds no file to swap with.
func TestWriteReplacesByExchange(t *testing.T) {
	switch runtime.GOOS + "/" + runtime.GOARCH {
	case "linux/amd64", "linux/386", "linux/arm64":
	default:
		t.Skipf("%s/%s has no exchange: Write renames", runtime.GOOS, runtime.GOARCH)
	}
	var swaps []error
	defer watchExchange(func(a, b string) error {
		err := swap(a, b)
		swaps = append(swaps, err)
		return err
	})()
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, data := range []string{"first", "second"} {
		if err := Write(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if len(swaps) != 2 || !errors.Is(swaps[0], syscall.ENOENT) {
		t.Fatalf("exchange results %v, want ENOENT for the fresh path, then one more", swaps)
	}
	var errno syscall.Errno
	if errors.As(swaps[1], &errno) {
		t.Skipf("the filesystem under %s refuses the exchange (errno %d, %v): Write renames", dir, int(errno), errno)
	}
	if swaps[1] != nil {
		t.Fatalf("replacing Write: exchange failed with %v", swaps[1])
	}
	t.Log("a replacing Write took the exchange")
	mustHold(t, dir, path, "second")
}

// TestWriteFallsBackToRename: when the exchange fails, Write renames and
// still replaces the file, leaving nothing else behind.
func TestWriteFallsBackToRename(t *testing.T) {
	defer watchExchange(func(a, b string) error { return syscall.EINVAL })()
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, data := range []string{"first", "second", "third"} {
		if err := Write(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		mustHold(t, dir, path, data)
	}
}

// TestWriteKeepsOpenHandles: a reader that opened the old version keeps
// reading it, whole, after a Write replaced the file.
func TestWriteKeepsOpenHandles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	old := bytes.Repeat([]byte("old version "), 1000)
	if err := Write(path, old); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := Write(path, []byte("new version")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the open handle read %d bytes (%v), want the %d bytes of the old version", len(got), err, len(old))
	}
	mustHold(t, dir, path, "new version")
}

// BenchmarkWriteReplace writes 40 KB over one path b.N times: the
// replacing Write a checkpointed search makes after every try.
func BenchmarkWriteReplace(b *testing.B) {
	path := filepath.Join(b.TempDir(), "state.json")
	data := bytes.Repeat([]byte{'x'}, 40<<10)
	if err := Write(path, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(path, data); err != nil {
			b.Fatal(err)
		}
	}
}

// watchExchange makes Write swap through fn until the returned function
// restores the real exchange.
func watchExchange(fn func(a, b string) error) (restore func()) {
	exchange = fn
	return func() { exchange = swap }
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
