//go:build linux && !arm

package disk

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writing back the
// range's dirty pages that are not under writeback yet, without waiting.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to start writing [off, off+n) of the file
// behind fd back to the device and returns without waiting for it. It is
// advice, so its error is dropped: the fsync in Sync is still the
// durability barrier and reports every write-back failure.
func startWriteback(fd uintptr, off, n int64) {
	_ = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
}
