package pkgs

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pfs"
)

func TestBundleRoundTrip(t *testing.T) {
	b := NewBundle()
	b.Add("lib/app.tcl", []byte("proc main {} { puts hi }"))
	b.Add("lib/util.tcl", []byte("proc helper {} {}"))
	b.Add("data/input.bin", []byte{0, 1, 2, 255})
	packed := b.Pack()
	back, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Members()) != 3 {
		t.Fatalf("members = %d", len(back.Members()))
	}
	c, err := back.Read("lib/app.tcl")
	if err != nil || !strings.Contains(string(c), "puts hi") {
		t.Fatalf("member content: %q %v", c, err)
	}
	bin, _ := back.Read("data/input.bin")
	if len(bin) != 4 || bin[3] != 255 {
		t.Fatalf("binary member: %v", bin)
	}
	if _, err := back.Read("missing"); err == nil {
		t.Fatal("expected missing member error")
	}
	members := back.Members()
	if members[0] != "data/input.bin" {
		t.Fatalf("members not sorted: %v", members)
	}
}

func TestUnpackErrors(t *testing.T) {
	if _, err := Unpack(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := Unpack([]byte("garbagegarbage")); err == nil {
		t.Fatal("bad magic should fail")
	}
	b := NewBundle()
	b.Add("x", []byte("y"))
	packed := b.Pack()
	if _, err := Unpack(packed[:len(packed)-1]); err == nil {
		t.Fatal("truncated should fail")
	}
}

func TestBundleProperty(t *testing.T) {
	f := func(names []string, contents [][]byte) bool {
		b := NewBundle()
		want := map[string][]byte{}
		for i, n := range names {
			if n == "" {
				continue
			}
			var c []byte
			if i < len(contents) {
				c = contents[i]
			}
			b.Add(n, c)
			want[n] = c
		}
		back, err := Unpack(b.Pack())
		if err != nil || len(back.Members()) != len(want) {
			return false
		}
		for n, c := range want {
			got, err := back.Read(n)
			if err != nil || len(got) != len(c) {
				return false
			}
			for i := range c {
				if got[i] != c[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInstallAndLoadCosts(t *testing.T) {
	fs := pfs.New(pfs.DefaultConfig())
	b := NewBundle()
	for i := 0; i < 50; i++ {
		b.Add("lib/mod"+string(rune('a'+i%26))+".tcl", []byte(strings.Repeat("proc x {} {}\n", 10)))
	}
	Install(fs, "/apps/bundle.spkg", b)
	fs.ResetStats()
	loaded, err := Load(fs, "/apps/bundle.spkg")
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Members()) != len(b.Members()) {
		t.Fatalf("loaded %d members, want %d", len(loaded.Members()), len(b.Members()))
	}
	// Exactly one metadata op to fetch everything.
	if fs.MetaOps() != 1 {
		t.Fatalf("bundle load cost %d metadata ops", fs.MetaOps())
	}
	// Sourcing members afterwards is free.
	before := fs.MetaOps()
	if _, err := loaded.SourceFS(loaded.Members()[0]); err != nil {
		t.Fatal(err)
	}
	if fs.MetaOps() != before {
		t.Fatal("bundle member access charged filesystem ops")
	}
}

func TestLoadMissing(t *testing.T) {
	fs := pfs.New(pfs.DefaultConfig())
	if _, err := Load(fs, "/nope.spkg"); err == nil {
		t.Fatal("expected load error")
	}
}
