// Package machine models the target system of the synthesis: the memory
// limit the concrete code must respect and the disk parameters that define
// the I/O cost model (seek time, transfer bandwidth, and the minimum block
// sizes that make seek time negligible, per Table 1 and the block-size
// study the paper cites).
package machine

import "fmt"

// Disk holds the I/O characteristics of one local disk.
type Disk struct {
	// SeekTime is the average positioning cost charged per I/O operation,
	// in seconds.
	SeekTime float64
	// ReadBandwidth and WriteBandwidth are sustained transfer rates in
	// bytes per second.
	ReadBandwidth  float64
	WriteBandwidth float64
	// MinReadBlock and MinWriteBlock are the smallest I/O block sizes (in
	// bytes) for which transfer time dominates seek time; the synthesis
	// constrains every in-memory buffer used as an I/O block to be at
	// least this large. The paper's system needs 2 MB reads and 1 MB
	// writes.
	MinReadBlock  int64
	MinWriteBlock int64
}

// ReadTime returns the modelled time to read n bytes in ops operations.
func (d Disk) ReadTime(n int64, ops int64) float64 {
	return float64(float64(ops)*d.SeekTime) + float64(n)/d.ReadBandwidth
}

// WriteTime returns the modelled time to write n bytes in ops operations.
func (d Disk) WriteTime(n int64, ops int64) float64 {
	return float64(float64(ops)*d.SeekTime) + float64(n)/d.WriteBandwidth
}

// Config describes one node of the target machine.
type Config struct {
	Name string
	// MemoryLimit is the byte budget for all in-memory buffers of the
	// generated code. The paper generates for 2 GB although nodes have
	// 4 GB, leaving room for the OS and write buffers.
	MemoryLimit int64
	// ElemSize is the array element size in bytes (8: double precision).
	ElemSize int64
	// FlopRate is the node's sustained floating-point rate in flops/s for
	// the in-memory kernels (0 disables compute-time modelling). Used to
	// classify synthesized codes as I/O- or compute-bound and to bound
	// what overlapping I/O with computation could achieve.
	FlopRate float64
	Disk     Disk
}

// Validate checks the configuration for usable values.
func (c Config) Validate() error {
	if c.MemoryLimit <= 0 {
		return fmt.Errorf("machine: non-positive memory limit %d", c.MemoryLimit)
	}
	if c.ElemSize <= 0 {
		return fmt.Errorf("machine: non-positive element size %d", c.ElemSize)
	}
	d := c.Disk
	if d.ReadBandwidth <= 0 || d.WriteBandwidth <= 0 {
		return fmt.Errorf("machine: non-positive disk bandwidth")
	}
	if d.SeekTime < 0 {
		return fmt.Errorf("machine: negative seek time")
	}
	if d.MinReadBlock < 0 || d.MinWriteBlock < 0 {
		return fmt.Errorf("machine: negative minimum block size")
	}
	return nil
}

const (
	KB = int64(1) << 10
	MB = int64(1) << 20
	GB = int64(1) << 30
)

// OSCItanium2 returns the model of one node of the Ohio Supercomputer
// Center Itanium-2 cluster used in the paper's experiments (Table 1):
// dual Itanium-2 900 MHz, 4 GB memory of which 2 GB is usable by the
// generated code, local SCSI disk of the era (~10 ms average positioning,
// tens of MB/s sustained), minimum efficient blocks of 2 MB for reads and
// 1 MB for writes.
func OSCItanium2() Config {
	return Config{
		Name:        "OSC Itanium-2 node",
		MemoryLimit: 2 * GB,
		ElemSize:    8,
		// Dual 900 MHz Itanium-2: ~2 flops/cycle/core sustained on DGEMM.
		FlopRate: 3.6e9,
		Disk: Disk{
			SeekTime:       0.010,
			ReadBandwidth:  50e6,
			WriteBandwidth: 40e6,
			MinReadBlock:   2 * MB,
			MinWriteBlock:  1 * MB,
		},
	}
}

// Small returns a scaled-down configuration handy for tests and examples:
// a few megabytes of memory and no minimum block size, so that tiny
// problems admit out-of-core solutions.
func Small(memLimit int64) Config {
	return Config{
		Name:        "test node",
		MemoryLimit: memLimit,
		ElemSize:    8,
		Disk: Disk{
			SeekTime:       0.001,
			ReadBandwidth:  100e6,
			WriteBandwidth: 80e6,
			MinReadBlock:   0,
			MinWriteBlock:  0,
		},
	}
}
