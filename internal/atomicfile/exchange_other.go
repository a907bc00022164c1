//go:build !linux || !(amd64 || 386 || arm64)

package atomicfile

import "errors"

// swap reports that this build has no exchange, so Write renames.
func swap(a, b string) error { return errors.ErrUnsupported }
