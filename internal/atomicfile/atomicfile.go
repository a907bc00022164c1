// Package atomicfile replaces a file's contents in one step, so that a
// reader, or the program restarted after it died mid-write or a write
// failed, finds either the old file or the new one, never part of one,
// and no temporary file is left behind by an error.
//
// Write swaps the new version in (renameat2 with RENAME_EXCHANGE) and then
// unlinks the old one, rather than renaming the new version over the old.
// The reason is ext4's replace heuristic (auto_da_alloc, on by default): a
// rename over an existing file allocates the new file's blocks at once, so
// the next Write must free blocks that are already on disk. On ext4 over a
// virtio disk mounted with discard, that free waits tens of milliseconds
// with under 1 ms of CPU. An exchange does not trigger the heuristic, so a
// version replaced within the kernel's writeback delay (~30 s) is freed
// while still in delayed allocation, with no disk wait. On that host,
// replacing one 40 KB file (BenchmarkWriteReplace) took 28–49 µs per Write
// by exchange and 37–62 ms by rename.
//
// The package does not sync, so an operating-system crash may lose a
// write that returned. Syncing would not remove the wait: fsync, exchange
// and unlink took 72–75 ms per Write on the same host, because the old
// version, synced by the previous Write, is then freed from disk. And since ext4 no longer forces a
// replaced file's data to disk before the swap commits, a file replaced
// shortly before a crash may come back empty, as a file written under a
// fresh name (the first Write to a path) already could. The readers of
// the files written through this package treat an empty file as missing
// or corrupt: a search state file starts a fresh search, a daemon job with
// an empty status is queued again, and an empty registry or checkpoint
// file is refused with an error.
package atomicfile

import (
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Write replaces the file at path with data. It writes the temporary file
// path+".tmp", swaps it with path in one exchange, and unlinks the
// temporary name, which then holds the old version. The exchange is the
// commit point: once it succeeds, Write reports success. When path does
// not exist yet, or the exchange fails for any reason (a platform or
// filesystem without it), Write renames the temporary file over path
// instead, and any real error comes from that rename. On any error it
// removes the temporary file and leaves path as it was.
func Write(path string, data []byte) error {
	f := armed(path)
	tmp := path + ".tmp"
	err := writeTemp(tmp, data, f)
	if err == nil {
		err = replace(tmp, path, f)
	}
	if err != nil {
		// The write already failed; a temporary file that cannot be
		// removed changes nothing the caller can do about it.
		_ = os.Remove(tmp)
	}
	return err
}

// replace moves the file tmp to path, injecting the fault f.
func replace(tmp, path string, f Fault) error {
	if f == RenameFails {
		return &os.LinkError{Op: "rename", Old: tmp, New: path, Err: syscall.EIO}
	}
	if exchange(tmp, path) != nil {
		return os.Rename(tmp, path)
	}
	// path holds the new version. Should the process die before this
	// unlink, or the unlink fail, the old version stays under tmp until
	// the next Write truncates it.
	_ = os.Remove(tmp)
	return nil
}

// exchange swaps the files at two paths in one step. It is a variable so
// that the tests can watch the swap or make it fail.
var exchange = swap

// writeTemp writes data to the file name, created or truncated, injecting
// the fault f.
func writeTemp(name string, data []byte, f Fault) error {
	file, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var fault error
	switch f {
	case ShortWrite:
		data, fault = data[:len(data)/2], io.ErrShortWrite
	case NoSpace:
		data, fault = data[:len(data)/2], &os.PathError{Op: "write", Path: name, Err: syscall.ENOSPC}
	}
	_, err = file.Write(data)
	if err == nil {
		err = fault
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Fault is a disk fault Inject arms in Write.
type Fault int

const (
	// NoFault writes for real.
	NoFault Fault = iota
	// ShortWrite writes half the bytes of the temporary file and fails
	// with io.ErrShortWrite.
	ShortWrite
	// NoSpace writes half the bytes of the temporary file and fails with
	// ENOSPC.
	NoSpace
	// RenameFails writes the temporary file whole and fails the step that
	// puts it in place of path.
	RenameFails
)

// The test seam: the armed fault and the writes it spares.
var (
	seamMu     sync.Mutex
	seamSuffix string
	seamSkip   int
	seamFault  Fault
)

// Inject is a test hook: it arms fault for every Write to a path ending in
// suffix after the first skip such writes, until the returned function
// disarms it. One fault is armed at a time.
func Inject(suffix string, skip int, fault Fault) (disarm func()) {
	seamMu.Lock()
	seamSuffix, seamSkip, seamFault = suffix, skip, fault
	seamMu.Unlock()
	return func() { Inject("", 0, NoFault) }
}

// armed returns the fault a Write to path injects, counting it against
// the writes the armed fault spares.
func armed(path string) Fault {
	seamMu.Lock()
	defer seamMu.Unlock()
	if seamFault == NoFault || !strings.HasSuffix(path, seamSuffix) {
		return NoFault
	}
	if seamSkip > 0 {
		seamSkip--
		return NoFault
	}
	return seamFault
}
