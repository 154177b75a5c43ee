package tcl

import (
	"runtime"
	"strings"
	"testing"
)

// append and lappend extend a per-variable builder in place; everything
// here checks that this never shows through Tcl's value semantics.

func TestAppendKeepsValueSemantics(t *testing.T) {
	in := New()
	// A copy taken mid-run is a value: neither side's later appends show
	// in the other, though both began as views of one buffer.
	evalOK(t, in, `set l {}; foreach x {a b c} {lappend l $x}`)
	evalOK(t, in, `set a $l; lappend l x; lappend a y; lappend l z`)
	expect(t, in, `set l`, "a b c x z")
	expect(t, in, `set a`, "a b c y")

	evalOK(t, in, `set s ab; append s cd; set t $s; append s ef; append t gh gh`)
	expect(t, in, `set s`, "abcdef")
	expect(t, in, `set t`, "abcdghgh")
	expect(t, in, `append fresh`, "")
	expect(t, in, `append fresh x y`, "xy")
	expect(t, in, `lappend fresh2`, "")
}

func TestAppendAfterOtherWrites(t *testing.T) {
	in := New()
	// set, incr, unset and re-set between appends: each ends the run, and
	// the next append starts from the variable's value, not the builder's.
	evalOK(t, in, `lappend l 1 2; set l {9 9}; lappend l 3`)
	expect(t, in, `set l`, "9 9 3")
	evalOK(t, in, `unset l; lappend l 4`)
	expect(t, in, `set l`, "4")
	evalOK(t, in, `append n 4; incr n; append n 0`)
	expect(t, in, `set n`, "50")
	evalOK(t, in, `namespace eval ns { variable v ab }`)
	evalOK(t, in, `proc ns::f {} { variable v; append v cd; variable v xy; append v z }`)
	expect(t, in, `ns::f`, "xyz")
	evalOK(t, in, `foreach it {p q} { lappend it tail; lappend seen $it }`)
	expect(t, in, `set seen`, "{p tail} {q tail}")
}

func TestAppendThroughUpvarAndGlobal(t *testing.T) {
	in := New()
	evalOK(t, in, `
		proc push {name v} { upvar 1 $name l; lappend l $v }
		proc gpush {v} { global acc; append acc $v }
		set l {}
		push l a; lappend l b; push l {c d}
		gpush x; append acc y; gpush z
	`)
	expect(t, in, `set l`, "a b {c d}")
	expect(t, in, `set acc`, "xyz")
	// The run belongs to the variable, not the name: a write through the
	// alias ends the run the other name started.
	evalOK(t, in, `proc reset {name} { upvar 1 $name l; set l {0} }; reset l; lappend l 1`)
	expect(t, in, `set l`, "0 1")
}

func TestAppendOnArrayElements(t *testing.T) {
	in := New()
	evalOK(t, in, `lappend a(x) 1; lappend a(y) 7; lappend a(x) 2; lappend a(x) 3; append a(y) 8`)
	expect(t, in, `set a(x)`, "1 2 3")
	expect(t, in, `set a(y)`, "78")
	evalOK(t, in, `set a(x) q; lappend a(x) r; unset a(x); lappend a(x) s`)
	expect(t, in, `set a(x)`, "s")
	expect(t, in, `array size a`, "2")
	evalOK(t, in, `set sc v`)
	expectErr(t, in, `lappend sc(k) 1`, "variable isn't array")
	expectErr(t, in, `lappend a 1`, "variable is array")
	expectErr(t, in, `append a 1`, "variable is array")
}

func TestLappendQuotingUnchanged(t *testing.T) {
	in := New()
	elems := []string{"", "a b", "{", "}", "a{b", `back\slash`, "$x", "[cmd]", "#hash", "semi;colon", "plain", "new\nline", `"q"`}
	for _, e := range elems {
		if _, err := in.Call([]string{"lappend", "l", e}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := in.GetVar("l")
	if err != nil {
		t.Fatal(err)
	}
	if want := FormatList(elems); got != want {
		t.Fatalf("lappend built %q, FormatList gives %q", got, want)
	}
	back, err := ParseList(got)
	if err != nil || strings.Join(back, "\x00") != strings.Join(elems, "\x00") {
		t.Fatalf("round trip: %q, %v", back, err)
	}
}

// A list-building loop allocates O(n) bytes in total. Rebuilding the
// string per element, as lappend once did, would allocate n^2/2 times the
// element width: ~30 GB at this size, against a ceiling of 100 MB.
func TestAppendLoopAllocatesLinearly(t *testing.T) {
	for _, script := range []string{
		`set l {}; for {set i 0} {$i < 100000} {incr i} {lappend l $i}; llength $l`,
		`set s {}; for {set i 0} {$i < 100000} {incr i} {append s " " $i}; llength $s`,
		`for {set i 0} {$i < 100000} {incr i} {lappend a(k) $i}; llength $a(k)`,
	} {
		in := New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := evalOK(t, in, script)
		runtime.ReadMemStats(&after)
		if res != "100000" {
			t.Fatalf("%q built %s elements, want 100000", script, res)
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 100 {
			t.Fatalf("%q allocated %d MB for 100000 appends; want O(n)", script, mb)
		}
	}
}
