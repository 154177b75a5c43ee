// Package pkgs implements the static-package mechanism the paper offers
// against the many-small-files problem (§I, §IV: "the many small file
// problem common in scripted solutions can be addressed with our static
// packages"). A Bundle archives the Tcl scripts, generated SWIG wrapper
// sources, and data files of an application into one file; ranks load the
// bundle with a single metadata operation and one bandwidth-bound read,
// then source members from memory at zero filesystem cost.
package pkgs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/pfs"
)

// Bundle is an in-memory static package.
type Bundle struct {
	files map[string][]byte
}

// NewBundle creates an empty bundle.
func NewBundle() *Bundle { return &Bundle{files: map[string][]byte{}} }

// Add stores a member file.
func (b *Bundle) Add(path string, content []byte) {
	b.files[path] = append([]byte(nil), content...)
}

// Read returns a member's content.
func (b *Bundle) Read(path string) ([]byte, error) {
	c, ok := b.files[path]
	if !ok {
		return nil, fmt.Errorf("pkgs: bundle has no member %q", path)
	}
	return c, nil
}

// Members lists member paths, sorted.
func (b *Bundle) Members() []string {
	out := make([]string, 0, len(b.files))
	for p := range b.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

const bundleMagic = 0x53504B47 // "SPKG"

// Pack serialises the bundle deterministically (sorted members).
func (b *Bundle) Pack() []byte {
	var out []byte
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], bundleMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(b.files)))
	out = append(out, hdr[:]...)
	for _, p := range b.Members() {
		content := b.files[p]
		var lens [8]byte
		binary.LittleEndian.PutUint32(lens[:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(lens[4:], uint32(len(content)))
		out = append(out, lens[:]...)
		out = append(out, p...)
		out = append(out, content...)
	}
	return out
}

// Unpack parses a serialised bundle.
func Unpack(data []byte) (*Bundle, error) {
	if len(data) < 8 || binary.LittleEndian.Uint32(data[:4]) != bundleMagic {
		return nil, fmt.Errorf("pkgs: not a static package (bad magic)")
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	b := NewBundle()
	off := 8
	for i := 0; i < n; i++ {
		if off+8 > len(data) {
			return nil, fmt.Errorf("pkgs: truncated bundle header at member %d", i)
		}
		pl := int(binary.LittleEndian.Uint32(data[off : off+4]))
		cl := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		off += 8
		if off+pl+cl > len(data) {
			return nil, fmt.Errorf("pkgs: truncated bundle member %d", i)
		}
		path := string(data[off : off+pl])
		off += pl
		b.Add(path, data[off:off+cl])
		off += cl
	}
	return b, nil
}

// Install writes the packed bundle to the filesystem (one metadata op).
func Install(fs *pfs.FS, path string, b *Bundle) {
	fs.WriteFile(path, b.Pack())
}

// Load fetches and parses a bundle: one metadata op + one large read,
// which is the whole point versus N small files.
func Load(fs *pfs.FS, path string) (*Bundle, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unpack(data)
}

// SourceFS adapts a loaded bundle for tcl.Interp.SourceFS: members are
// served from memory with no filesystem cost.
func (b *Bundle) SourceFS(path string) (string, error) {
	c, err := b.Read(path)
	if err != nil {
		return "", err
	}
	return string(c), nil
}
