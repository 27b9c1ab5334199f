package pmem

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// discard gives back the pages behind b: MADV_REMOVE punches them out of
// a shared file mapping (the file system frees their blocks), and
// MADV_DONTNEED drops anonymous ones. Both leave b reading zero. b must
// start and end on page boundaries: a partial page would stay behind.
func discard(b []byte, file bool) error {
	page := uintptr(os.Getpagesize())
	if uintptr(unsafe.Pointer(&b[0]))%page != 0 || uintptr(len(b))%page != 0 {
		return fmt.Errorf("pmem: discard of %d bytes at %p covers a partial page", len(b), &b[0])
	}
	advice := syscall.MADV_DONTNEED
	if file {
		advice = syscall.MADV_REMOVE
	}
	return syscall.Madvise(b, advice)
}
