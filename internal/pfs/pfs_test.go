package pfs

import (
	"strings"
	"testing"
	"time"
)

func TestReadWriteStat(t *testing.T) {
	fs := New(DefaultConfig())
	fs.WriteFile("/a/b.tcl", []byte("proc x {} {}"))
	content, err := fs.ReadFile("/a/b.tcl")
	if err != nil || string(content) != "proc x {} {}" {
		t.Fatalf("read: %q %v", content, err)
	}
	if _, err := fs.ReadFile("/missing"); err == nil {
		t.Fatal("expected missing file error")
	}
	// Reads return copies.
	content[0] = 'X'
	again, _ := fs.ReadFile("/a/b.tcl")
	if again[0] == 'X' {
		t.Fatal("ReadFile aliases internal storage")
	}
}

func TestCostAccounting(t *testing.T) {
	cfg := Config{MetadataLatency: time.Millisecond, ReadBandwidth: 1e6} // 1 MB/s
	fs := New(cfg)
	fs.Provision("/data", make([]byte, 1000)) // free
	if fs.MetaOps() != 0 {
		t.Fatal("provision should be free")
	}
	fs.ReadFile("/data")
	if fs.MetaOps() != 1 {
		t.Fatalf("meta ops = %d", fs.MetaOps())
	}
	// 1 meta op (1ms) + 1000 bytes at 1MB/s (1ms) = 2ms.
	if got := fs.VirtualElapsed(); got != 2*time.Millisecond {
		t.Fatalf("virtual elapsed = %v", got)
	}
	// Metadata cost dominates many small reads: 100 reads of 10 bytes.
	fs.ResetStats()
	fs.Provision("/small", make([]byte, 10))
	for i := 0; i < 100; i++ {
		fs.ReadFile("/small")
	}
	small := fs.VirtualElapsed()
	fs.ResetStats()
	fs.Provision("/big", make([]byte, 1000))
	fs.ReadFile("/big")
	big := fs.VirtualElapsed()
	if small <= big*10 {
		t.Fatalf("many-small-files should dominate: small=%v big=%v", small, big)
	}
}

func TestSourceFS(t *testing.T) {
	fs := New(DefaultConfig())
	fs.Provision("/s.tcl", []byte("set x 1"))
	content, err := fs.SourceFS("/s.tcl")
	if err != nil || content != "set x 1" {
		t.Fatalf("%q %v", content, err)
	}
	if _, err := fs.SourceFS("/nope"); err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	fs := New(Config{})
	fs.Provision("/x", []byte("y"))
	fs.ReadFile("/x")
	if fs.VirtualElapsed() <= 0 {
		t.Fatal("zero-config FS charged nothing")
	}
}
