package jlite

// Fragment-cache invariants, in the style of internal/pylite and
// internal/rlite: the compile-once cache stores parse results keyed by
// source text only, so cached fragments must observe every state
// mutation — redefined functions, rebound globals, Reset — exactly as
// uncached evaluation would, and the cache must stay bounded under
// unique-fragment floods.

import (
	"fmt"
	"strings"
	"testing"
)

func TestFragmentCacheHitIsParseFree(t *testing.T) {
	in := New()
	const code = "y = 0\nfor k in 1:4\n    y = y + k\nend"
	if _, err := in.EvalFragment(code, "y"); err != nil {
		t.Fatal(err)
	}
	if st := in.ParseStats(); st.Entries != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cache = %+v; want the program and the expression, each parsed once", st)
	}
	for i := 0; i < 10; i++ {
		out, err := in.EvalFragment(code, "y")
		if err != nil || out != "10" {
			t.Fatalf("out = %q, %v", out, err)
		}
	}
	if st := in.ParseStats(); st.Entries != 2 || st.Misses != 2 || st.Hits != 20 {
		t.Fatalf("repeats grew the cache or re-parsed: %+v", st)
	}
}

func TestFragmentCacheSeesRedefinition(t *testing.T) {
	in := New()
	// The call-site fragment "f()" is cached once; redefining f through
	// another cached fragment must change what it returns.
	if err := in.Exec("function f()\n    1\nend"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.EvalExpr("f()"); err != nil || Str(v) != "1" {
		t.Fatalf("f() = %v, %v", v, err)
	}
	if err := in.Exec("function f()\n    2\nend"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.EvalExpr("f()"); err != nil || Str(v) != "2" {
		t.Fatalf("after redefinition f() = %v, %v", v, err)
	}
}

func TestFragmentCacheSeesRebinding(t *testing.T) {
	in := New()
	const read = "x * 10"
	for want, bind := range map[string]string{"70": "x = 7", "80": "x = 8"} {
		if err := in.Exec(bind); err != nil {
			t.Fatal(err)
		}
		if v, err := in.EvalExpr(read); err != nil || Str(v) != want {
			t.Fatalf("%s -> %v (want %s), %v", bind, v, want, err)
		}
	}
}

func TestFragmentCacheSurvivesResetButStateDoesNot(t *testing.T) {
	in := New()
	if _, err := in.EvalFragment("state = 1", "state"); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	if st := in.ParseStats(); st.Entries != 2 {
		t.Fatalf("Reset dropped the parse cache (%d entries)", st.Entries)
	}
	if _, err := in.EvalExpr("state"); err == nil {
		t.Fatal("state survived Reset")
	}
	// The cached fragment replays against the fresh globals.
	if out, err := in.EvalFragment("state = 1", "state"); err != nil || out != "1" {
		t.Fatalf("replay after Reset: %q, %v", out, err)
	}
}

func TestFragmentCacheBoundedEviction(t *testing.T) {
	in := New()
	// Twenty 100 KiB fragments are 2 MiB of source: the program side's
	// 1 MiB byte budget (memo.Parses) must evict to stay under it.
	pad := strings.Repeat("x", 100<<10)
	for i := 0; i < 20; i++ {
		if err := in.Exec(fmt.Sprintf("v%d = %d\n# %s", i, i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	if st := in.ParseStats(); st.CurBytes > 1<<20 || st.Evictions == 0 || st.Entries >= 20 {
		t.Fatalf("cache exceeded its byte bound: %+v", st)
	}
	// An evicted fragment still evaluates correctly (re-parsed).
	if err := in.Exec("v0 = 99"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.EvalExpr("v0"); err != nil || Str(v) != "99" {
		t.Fatalf("evicted fragment re-eval: %v, %v", v, err)
	}
}

func TestFragmentCacheParseErrorsNotCached(t *testing.T) {
	in := New()
	if err := in.Exec("function ("); err == nil {
		t.Fatal("bad syntax accepted")
	}
	if _, err := in.EvalExpr("1 +"); err == nil {
		t.Fatal("bad expr accepted")
	}
	if st := in.ParseStats(); st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("parse failures entered the cache: %+v", st)
	}
}
