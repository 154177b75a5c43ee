package rlite

// Fragment-cache invariants for the R engine, mirroring
// internal/pylite/cache_test.go and internal/tcl/cache_test.go: parse
// results are cached by source text only, so cached fragments observe
// every state mutation, and the cache stays bounded.

import (
	"fmt"
	"strings"
	"testing"
)

func TestFragmentCacheHitIsParseFree(t *testing.T) {
	in := New()
	const code = "v <- 1:4\ns <- sum(v)"
	if _, err := in.EvalFragment(code, "s"); err != nil {
		t.Fatal(err)
	}
	if st := in.ParseStats(); st.Entries != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cache = %+v; want the code and the expression, each parsed once", st)
	}
	for i := 0; i < 10; i++ {
		out, err := in.EvalFragment(code, "s")
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
	if _, err := in.Eval("f <- function() 1"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.Eval("f()"); err != nil || Deparse(v) != "1" {
		t.Fatalf("f() = %v, %v", v, err)
	}
	if _, err := in.Eval("f <- function() 2"); err != nil {
		t.Fatal(err)
	}
	if v, err := in.Eval("f()"); err != nil || Deparse(v) != "2" {
		t.Fatalf("after redefinition f() = %v, %v", v, err)
	}
}

func TestFragmentCacheSurvivesResetButStateDoesNot(t *testing.T) {
	in := New()
	if _, err := in.EvalFragment("state <- 1", "state"); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	if st := in.ParseStats(); st.Entries != 2 {
		t.Fatalf("Reset dropped the parse cache (%d entries)", st.Entries)
	}
	if _, err := in.Eval("state"); err == nil {
		t.Fatal("state survived Reset")
	}
	if out, err := in.EvalFragment("state <- 1", "state"); err != nil || out != "1" {
		t.Fatalf("replay after Reset: %q, %v", out, err)
	}
}

func TestFragmentCacheBoundedEviction(t *testing.T) {
	in := New()
	// Twenty 100 KiB fragments are 2 MiB of source: the program side's
	// 1 MiB byte budget (memo.Parses) must evict to stay under it.
	pad := strings.Repeat("x", 100<<10)
	for i := 0; i < 20; i++ {
		if _, err := in.Eval(fmt.Sprintf("v%d <- %d\n# %s", i, i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	if st := in.ParseStats(); st.CurBytes > 1<<20 || st.Evictions == 0 || st.Entries >= 20 {
		t.Fatalf("cache exceeded its byte bound: %+v", st)
	}
	if v, err := in.Eval("v0 + 1"); err != nil || Deparse(v) != "1" {
		t.Fatalf("evicted fragment re-eval: %v, %v", v, err)
	}
}

func TestFragmentCacheParseErrorsNotCached(t *testing.T) {
	in := New()
	if _, err := in.Eval("function ("); err == nil {
		t.Fatal("bad syntax accepted")
	}
	if st := in.ParseStats(); st.Entries != 0 {
		t.Fatalf("parse failure entered the cache (%d entries)", st.Entries)
	}
}
