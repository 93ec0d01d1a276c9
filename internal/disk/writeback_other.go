//go:build !linux || arm

package disk

// startWriteback does nothing where the syscall package has no
// sync_file_range (every OS but Linux, and 32-bit ARM Linux): dirty pages
// wait for the fsync in Sync.
func startWriteback(fd uintptr, off, n int64) {}
