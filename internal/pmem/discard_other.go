//go:build !linux

package pmem

import "errors"

var errNoDiscard = errors.New("pmem: discarding pages requires linux")

// discard is unavailable off linux: free pages stay where they are, and
// the extents that hold them stay counted.
func discard(b []byte, file bool) error { return errNoDiscard }
