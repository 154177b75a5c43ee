// Package pfs simulates a parallel filesystem (GPFS/Lustre-class) with an
// explicit metadata-server cost model. The paper motivates embedded
// interpreters and static packages by the overhead of "small file system
// accesses common in scripted approaches" (§I, §III-C): every open/stat
// is a round trip to a metadata server that serialises requests, so
// loading thousands of small script files from thousands of ranks melts
// down, while one large package file costs a single metadata op plus a
// bandwidth-bound read.
//
// Costs are charged to virtual clocks (atomic nanosecond counters), so
// benchmarks are deterministic and fast while preserving the shape of
// the real pathology: metadata time scales with operation count,
// data time with bytes over shared bandwidth.
package pfs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets the filesystem cost model.
type Config struct {
	// MetadataLatency is the cost of one metadata operation (open,
	// stat, create). Operations serialise at the metadata server.
	MetadataLatency time.Duration
	// ReadBandwidth is the shared data bandwidth in bytes/second.
	ReadBandwidth float64
}

// DefaultConfig mimics a mid-sized cluster filesystem: 500µs per
// metadata op, 2 GB/s aggregate read bandwidth.
func DefaultConfig() Config {
	return Config{MetadataLatency: 500 * time.Microsecond, ReadBandwidth: 2e9}
}

// Stats counts operations and charged virtual time.
type Stats struct {
	MetaOps   atomic.Int64
	metaNanos atomic.Int64
	dataNanos atomic.Int64
}

// FS is one simulated filesystem instance shared by all ranks.
type FS struct {
	mu    sync.RWMutex
	files map[string][]byte
	cfg   Config
	stats Stats
}

// New creates a filesystem with the given cost model.
func New(cfg Config) *FS {
	if cfg.MetadataLatency <= 0 {
		cfg.MetadataLatency = DefaultConfig().MetadataLatency
	}
	if cfg.ReadBandwidth <= 0 {
		cfg.ReadBandwidth = DefaultConfig().ReadBandwidth
	}
	return &FS{files: map[string][]byte{}, cfg: cfg}
}

// Provision installs a file without charging I/O cost (used to stage
// inputs before an experiment starts, like a pre-existing install).
func (fs *FS) Provision(path string, content []byte) {
	fs.mu.Lock()
	fs.files[path] = append([]byte(nil), content...)
	fs.mu.Unlock()
}

// WriteFile creates or replaces a file, charging one metadata op.
func (fs *FS) WriteFile(path string, content []byte) {
	fs.chargeMeta()
	fs.Provision(path, content)
}

// chargeMeta accounts one serialized metadata operation.
func (fs *FS) chargeMeta() {
	fs.stats.MetaOps.Add(1)
	fs.stats.metaNanos.Add(int64(fs.cfg.MetadataLatency))
}

// chargeRead accounts a bandwidth-bound data read.
func (fs *FS) chargeRead(n int) {
	fs.stats.dataNanos.Add(int64(float64(n) / fs.cfg.ReadBandwidth * 1e9))
}

// ReadFile opens and reads a file: one metadata op plus the data cost.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.chargeMeta()
	fs.mu.RLock()
	content, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pfs: no such file: %s", path)
	}
	fs.chargeRead(len(content))
	out := make([]byte, len(content))
	copy(out, content)
	return out, nil
}

// MetaOps returns the metadata operation count.
func (fs *FS) MetaOps() int64 { return fs.stats.MetaOps.Load() }

// VirtualElapsed returns the modelled wall time of all I/O so far: the
// serialized metadata time plus the bandwidth-bound data time.
func (fs *FS) VirtualElapsed() time.Duration {
	return time.Duration(fs.stats.metaNanos.Load() + fs.stats.dataNanos.Load())
}

// ResetStats zeroes the counters and clocks (files remain).
func (fs *FS) ResetStats() {
	fs.stats.MetaOps.Store(0)
	fs.stats.metaNanos.Store(0)
	fs.stats.dataNanos.Store(0)
}

// SourceFS adapts the filesystem for tcl.Interp.SourceFS.
func (fs *FS) SourceFS(path string) (string, error) {
	b, err := fs.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
