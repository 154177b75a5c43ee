package rlite

// Fragment-cache invariants for the R engine, mirroring
// internal/pylite/cache_test.go and internal/tcl/cache_test.go: parse
// results are cached by source text only, so cached fragments observe
// every state mutation, and the cache stays bounded.

import (
	"fmt"
	"testing"

	"repro/internal/memo"
)

func TestFragmentCacheHitIsParseFree(t *testing.T) {
	in := New()
	const code = "v <- 1:4\ns <- sum(v)"
	if _, err := in.EvalFragment(code, "s"); err != nil {
		t.Fatal(err)
	}
	if n := in.CacheStats(); n != 2 { // code fragment + expr fragment
		t.Fatalf("cache = %d, want 2", n)
	}
	for i := 0; i < 10; i++ {
		out, err := in.EvalFragment(code, "s")
		if err != nil || out != "10" {
			t.Fatalf("out = %q, %v", out, err)
		}
	}
	if n := in.CacheStats(); n != 2 {
		t.Fatalf("repeats grew the cache: %d", n)
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
	if n := in.CacheStats(); n == 0 {
		t.Fatal("Reset dropped the parse cache")
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
	in.progs = memo.NewBudget[[]rexpr](4, memo.UnitCost[[]rexpr])
	for i := 0; i < 20; i++ {
		if _, err := in.Eval(fmt.Sprintf("v%d <- %d", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := in.CacheStats(); n > 4 {
		t.Fatalf("cache exceeded bound: %d", n)
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
	if n := in.CacheStats(); n != 0 {
		t.Fatalf("parse failure entered the cache: %d", n)
	}
}
