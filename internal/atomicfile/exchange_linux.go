//go:build amd64 || 386 || arm64

package atomicfile

import (
	"syscall"
	"unsafe"
)

// Arguments of renameat2(2) the syscall package does not export.
const (
	atFDCWD        = -100 // AT_FDCWD: resolve relative paths from the working directory
	renameExchange = 2    // RENAME_EXCHANGE
)

// swap exchanges the files at a and b with renameat2(a, b,
// RENAME_EXCHANGE). Both must exist.
func swap(a, b string) error {
	pa, err := syscall.BytePtrFromString(a)
	if err != nil {
		return err
	}
	pb, err := syscall.BytePtrFromString(b)
	if err != nil {
		return err
	}
	cwd := atFDCWD // a negative constant does not convert to uintptr
	_, _, errno := syscall.Syscall6(sysRenameat2,
		uintptr(cwd), uintptr(unsafe.Pointer(pa)), uintptr(cwd), uintptr(unsafe.Pointer(pb)), renameExchange, 0)
	if errno != 0 {
		return errno
	}
	return nil
}
