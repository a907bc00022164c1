// Package atomicfile replaces a file's contents with one rename, so that a
// reader, or the program restarted after it died mid-write or a write
// failed, finds either the old file or the new one, never part of one,
// and no temporary file is left behind by an error. It does not sync: an
// operating-system crash may still lose a write that returned.
package atomicfile

import (
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Write replaces the file at path with data: it writes the temporary file
// path+".tmp" and renames it over path. On any error it removes the
// temporary file and leaves path as it was.
func Write(path string, data []byte) error {
	f := armed(path)
	tmp := path + ".tmp"
	err := writeTemp(tmp, data, f)
	if err == nil {
		if f == RenameFails {
			err = &os.LinkError{Op: "rename", Old: tmp, New: path, Err: syscall.EIO}
		} else {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		// The write already failed; a temporary file that cannot be
		// removed changes nothing the caller can do about it.
		_ = os.Remove(tmp)
	}
	return err
}

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
	// RenameFails writes the temporary file whole and fails the rename.
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
