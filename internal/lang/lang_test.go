package lang

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/shell"
	"repro/internal/tcl"
)

// The engine-generic invariants — state retain/reinit, typed argv
// binding, stale-argv unbinding, blob round-trip bit-exactness — live in
// internal/lang/conformance, which runs them as a matrix against every
// registered engine. This file keeps only the engine-specific behaviours
// (pylite Vec rendering, rlite prototype repacking, the tcl reattach
// rules, the shell's host-vs-owned system) and the registry/Install
// plumbing.

func TestShellEngineExecAndEvals(t *testing.T) {
	reg, ok := Lookup("sh")
	if !ok {
		t.Fatal("sh not registered")
	}
	eng := reg.New(Host{}) // no host shell: engine creates a default one
	c := Call{Code: "echo", Args: []Value{Str("hello"), Str("world")}}
	var evals atomic.Int64
	out, err := runFragment(eng, "sh", c, PolicyRetain, &evals)
	if err != nil {
		t.Fatal(err)
	}
	if out.Render() != "hello world" {
		t.Fatalf("out = %q", out.Render())
	}
	if out, err = runFragment(eng, "sh", c, PolicyReinit, &evals); err != nil || out.Render() != "hello world" {
		t.Fatalf("after Reset: %q, %v", out.Render(), err)
	}
	if n := evals.Load(); n != 2 {
		t.Fatalf("evals = %d, want 2", n)
	}
}

func TestShellEngineResetClearsOwnedState(t *testing.T) {
	// The PolicyReinit invariant: simulated shell state accumulated by
	// previous tasks (the engine-owned process table and its spawn
	// accounting) must not survive Reset.
	reg, _ := Lookup("sh")
	eng := reg.New(Host{}).(*shellEngine)
	if _, err := eng.Eval(Call{Code: "echo", Args: []Value{Str("x")}}); err != nil {
		t.Fatal(err)
	}
	if eng.sys.Spawns() == 0 {
		t.Fatal("no spawn recorded")
	}
	before := eng.sys
	eng.Reset()
	if eng.sys == before {
		t.Fatal("Reset kept the owned system instance")
	}
	if n := eng.sys.Spawns(); n != 0 {
		t.Fatalf("spawn state survived Reset: %d", n)
	}
}

func TestShellEngineResetKeepsHostSystem(t *testing.T) {
	// A host-provided System is the machine shared by every rank; one
	// engine's reinitialisation must not wipe it.
	sys := shell.NewSystem(shell.ModeCluster, nil)
	reg, _ := Lookup("sh")
	eng := reg.New(Host{Shell: sys}).(*shellEngine)
	if _, err := eng.Eval(Call{Code: "echo", Args: []Value{Str("x")}}); err != nil {
		t.Fatal(err)
	}
	eng.Reset()
	if eng.sys != sys {
		t.Fatal("Reset replaced the host-provided system")
	}
	if sys.Spawns() != 1 {
		t.Fatalf("host spawn accounting = %d, want 1", sys.Spawns())
	}
}

func TestTclEngineFragmentCacheSurvivesReset(t *testing.T) {
	// Like pylite/rlite, Reset must discard interpreter state but not
	// parses: under PolicyReinit a repeated tcl() fragment stays
	// compile-once.
	reg, _ := Lookup("tcl")
	eng := reg.New(Host{Out: io.Discard}).(*tclEngine)
	const fragSrc = "set g 41; expr {$g + 1}"
	for i := 0; i < 5; i++ {
		out, err := eng.Eval(Call{Code: fragSrc})
		if err != nil || out.Render() != "42" {
			t.Fatalf("out = %q, %v", out.Render(), err)
		}
		eng.Reset()
	}
	if st := eng.ParseCacheStats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("fragment cache = %+v, want 1 entry, 1 miss, 4 hits (survived Reset)", st)
	}
	if _, err := eng.Eval(Call{Code: "set g"}); err == nil {
		t.Fatal("state survived Reset")
	}
}

func TestPythonVecRoundTripBitExact(t *testing.T) {
	// A blob bound into Python and returned unmodified must come back
	// bit-exact with dims and element kind intact (zero-copy Vec).
	b := blob.FromFloat32s([]float32{1.5, -2.5, 3.75, 0.125, 9, 10})
	b.Dims = []int{2, 3}
	reg, _ := Lookup("python")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Code: "", Expr: "argv1", Args: []Value{BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got := res.AsBlob()
	if string(got.Data) != string(b.Data) || got.Elem != blob.ElemF32 ||
		len(got.Dims) != 2 || got.Dims[0] != 2 || got.Dims[1] != 3 {
		t.Fatalf("round trip mangled blob: %+v", got)
	}
}

func TestPythonVecRendersAsListInStringContext(t *testing.T) {
	// A vector result in a string context must render like a list — raw
	// payload bytes would be garbage to printf — matching fresh lists
	// and the R engine's deparse behaviour.
	reg, _ := Lookup("python")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Expr: "argv1", Args: []Value{Floats([]float64{1.5, 2.5})}, Want: KindString})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Render(); got != "[1.5, 2.5]" {
		t.Fatalf("string-context vector = %q", got)
	}
}

func TestPythonVecMutatesInPlaceTyped(t *testing.T) {
	b := blob.FromInt32s([]int32{10, 20, 30})
	reg, _ := Lookup("python")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Code: "argv1[1] = 21", Expr: "argv1", Args: []Value{BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	v, err := blob.ToInt32s(blob.Blob{Data: res.AsBlob().Data})
	if err != nil || v[1] != 21 || res.AsBlob().Elem != blob.ElemI32 {
		t.Fatalf("mutation lost: %v, %v", v, err)
	}
}

func TestREngineRepacksLikePrototype(t *testing.T) {
	// An R identity fragment over an int32 blob must return int32 bytes
	// (PackLike prefers the argument prototype), and arithmetic results
	// that leave the int32 domain must fall back to float64.
	b := blob.FromInt32s([]int32{1, 2, 3})
	b.Dims = []int{3, 1}
	reg, _ := Lookup("r")

	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Code: "x <- argv1", Expr: "x", Args: []Value{BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got := res.AsBlob()
	if string(got.Data) != string(b.Data) || got.Elem != blob.ElemI32 || len(got.Dims) != 2 {
		t.Fatalf("identity not bit-exact: %+v", got)
	}

	res, err = eng.Eval(Call{Code: "", Expr: "argv1 / 2", Args: []Value{BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got = res.AsBlob()
	if got.Elem != blob.ElemF64 {
		t.Fatalf("fractional result elem = %v, want float64", got.Elem)
	}
	xs, _ := got.Floats()
	if len(xs) != 3 || xs[0] != 0.5 || xs[2] != 1.5 {
		t.Fatalf("halved = %v", xs)
	}
}

func TestREngineRejectsInexactInt64(t *testing.T) {
	// R numerics are doubles: an int64 beyond 2^53 would round silently
	// and then repack to the wrong integer; it must be refused instead.
	huge := BlobOf(blob.FromInt64s([]int64{1<<53 + 1}))
	reg, _ := Lookup("r")
	eng := reg.New(Host{Out: io.Discard})
	_, err := eng.Eval(Call{Code: "", Expr: "argv1", Args: []Value{huge}, Want: KindBlob})
	if err == nil || !strings.Contains(err.Error(), "not exactly representable") {
		t.Fatalf("err = %v", err)
	}
	// Values inside the exact range stay fine.
	ok := BlobOf(blob.FromInt64s([]int64{1 << 53, -(1 << 53)}))
	if _, err := eng.Eval(Call{Code: "", Expr: "argv1", Args: []Value{ok}, Want: KindBlob}); err != nil {
		t.Fatal(err)
	}
}

func TestREngineMultiBlobArgsKeepTheirOwnMetadata(t *testing.T) {
	// With several blob arguments, a result that is one of them must
	// repack under ITS element view, never the first argument's.
	a := BlobOf(blob.FromInt32s([]int32{9, 9, 9}))
	b := blob.FromFloat64s([]float64{1, 2, 3})
	reg, _ := Lookup("r")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Expr: "argv2", Args: []Value{a, BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got := res.AsBlob()
	if got.Elem != blob.ElemF64 || string(got.Data) != string(b.Data) {
		t.Fatalf("argv2 repacked under wrong view: %+v", got)
	}
	// A fresh vector with multiple blob args is ambiguous: safe float64.
	res, err = eng.Eval(Call{Expr: "argv1 + 1", Args: []Value{a, BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AsBlob(); got.Elem != blob.ElemF64 {
		t.Fatalf("ambiguous fresh vector elem = %v, want float64", got.Elem)
	}
}

func TestJuliaEngineFreshIntResultStaysExactWithI64Prototype(t *testing.T) {
	// A fresh all-integer result with an int64 blob prototype must pack
	// on the exact integer path: narrowing through float64 would reject
	// 2^53+1 even though the prototype's own element kind holds it.
	const big = int64(1)<<53 + 1
	b := blob.FromInt64s([]int64{big, 2, 3})
	b.Dims = []int{3}
	reg, _ := Lookup("julia")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Code: "y = argv1 .+ 0", Expr: "y", Args: []Value{BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got := res.AsBlob()
	if got.Elem != blob.ElemI64 {
		t.Fatalf("elem = %v, want int64", got.Elem)
	}
	ns, _ := blob.ToInt64s(blob.Blob{Data: got.Data})
	if len(ns) != 3 || ns[0] != big {
		t.Fatalf("big int mangled: %v", ns)
	}
	if len(got.Dims) != 1 || got.Dims[0] != 3 {
		t.Fatalf("dims = %v, want [3]", got.Dims)
	}
	// A genuinely fractional result still falls through to PackLike's
	// float64 fallback rather than erroring.
	res, err = eng.Eval(Call{Code: "", Expr: "argv1 ./ 2", Args: []Value{BlobOf(blob.FromInt64s([]int64{1, 3}))}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AsBlob(); got.Elem != blob.ElemF64 {
		t.Fatalf("fractional result elem = %v, want float64", got.Elem)
	}
}

func TestJuliaEngineRepacksLikePrototype(t *testing.T) {
	// Like rlite: a fresh vector result adopts the sole blob argument's
	// element view when values permit (int32 here), so narrow identity
	// arithmetic stays narrow.
	b := blob.FromInt32s([]int32{1, 2, 3})
	reg, _ := Lookup("julia")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Code: "y = argv1 .* 2", Expr: "y", Args: []Value{BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got := res.AsBlob()
	if got.Elem != blob.ElemI32 {
		t.Fatalf("elem = %v, want int32", got.Elem)
	}
	ns, _ := blob.ToInt32s(blob.Blob{Data: got.Data})
	if len(ns) != 3 || ns[2] != 6 {
		t.Fatalf("doubled = %v", ns)
	}
}

func TestTclEngineBlobPassthrough(t *testing.T) {
	// Tcl is strings-only: blob args bind as raw payload bytes, and an
	// unmodified result reattaches the argument's metadata.
	b := blob.FromFloat64s([]float64{1, 2})
	b.Dims = []int{2}
	reg, _ := Lookup("tcl")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Code: "set argv1", Args: []Value{BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got := res.AsBlob()
	if string(got.Data) != string(b.Data) || got.Elem != blob.ElemF64 || len(got.Dims) != 1 {
		t.Fatalf("passthrough mangled blob: %+v", got)
	}
}

func TestTclEngineAmbiguousReattachFallsBackToRawBytes(t *testing.T) {
	// Two blob args with identical payload bytes but conflicting
	// metadata: reattaching either view would be a guess, so the result
	// must come back as raw bytes.
	data := []float32{1.5, 2.5}
	a := blob.FromFloat32s(data) // 8 bytes, ElemF32
	b := blob.Blob{Data: append([]byte(nil), a.Data...), Elem: blob.ElemF64}
	reg, _ := Lookup("tcl")
	eng := reg.New(Host{Out: io.Discard})
	res, err := eng.Eval(Call{Code: "set argv2", Args: []Value{BlobOf(a), BlobOf(b)}, Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	got := res.AsBlob()
	if got.Elem != blob.ElemBytes || string(got.Data) != string(a.Data) {
		t.Fatalf("ambiguous reattach: %+v", got)
	}
}

// memPlane is an in-memory DataPlane for exercising the typed dispatch
// surface without a Turbine deployment.
type memPlane struct {
	vals map[int64]Value
	tds  map[int64]string
}

func newMemPlane() *memPlane {
	return &memPlane{vals: map[int64]Value{}, tds: map[int64]string{}}
}

func (p *memPlane) LoadChunk(ids []int64) (Chunk, error) {
	vals := make([]Value, len(ids))
	for i, id := range ids {
		v, ok := p.vals[id]
		if !ok {
			return Chunk{}, io.EOF
		}
		vals[i] = v
	}
	return ValuesToChunk(vals)
}

func (p *memPlane) StoreAs(id int64, td string, v Value) error {
	p.vals[id] = v
	p.tds[id] = td
	return nil
}

// leafOf decodes action words into a leaf call, as turbine::leaf does on
// an engine rank.
func leafOf(t *testing.T, engine string, out int64, outType string, words ...string) *Leaf {
	t.Helper()
	l := &Leaf{Engine: engine, Out: out, OutType: outType}
	for _, w := range words {
		op, err := DecodeOperand(w)
		if err != nil {
			t.Fatal(err)
		}
		l.Args = append(l.Args, op)
	}
	return l
}

func TestInstallTypedCallSurface(t *testing.T) {
	// A python leaf moves a blob argument from the plane into the engine
	// and the typed result back, with only ids in the record.
	reg, _ := Lookup("python")
	dp := newMemPlane()
	dp.vals[1] = Str("total = sum(argv1)")
	dp.vals[2] = Str("total")
	dp.vals[3] = Floats([]float64{1, 2, 3.5})
	counters := NewCounters()
	tab := Install(tcl.New(), Host{Out: io.Discard}, PolicyRetain, counters, reg)
	if err := tab.Leaf(leafOf(t, "python", 9, "float", "1", "2", "3"), dp); err != nil {
		t.Fatal(err)
	}
	res, ok := dp.vals[9]
	if !ok || dp.tds[9] != "float" {
		t.Fatalf("result not stored: %v %q", ok, dp.tds[9])
	}
	f, err := res.AsFloat()
	if err != nil || f != 6.5 {
		t.Fatalf("sum = %v (%v), want 6.5", f, err)
	}
	if n := counters.Snapshot()["python"]; n != 1 {
		t.Fatalf("counter = %d, want 1", n)
	}
	if err := tab.Leaf(leafOf(t, "cobol", 9, "float", "1"), dp); err == nil || !strings.Contains(err.Error(), `no engine "cobol"`) {
		t.Fatalf("unknown engine: err = %v", err)
	}
}

func TestDecodeOperand(t *testing.T) {
	for _, tc := range []struct {
		word string
		want Operand
	}{
		{"42", Operand{ID: 42}},
		{"-7", Operand{ID: -7}},
		{"i:5", Operand{Imm: true, Val: Int(5)}},
		{"i:-9223372036854775808", Operand{Imm: true, Val: Int(math.MinInt64)}},
		{"f:1.5", Operand{Imm: true, Val: Float(1.5)}},
		{"f:3", Operand{Imm: true, Val: Float(3)}},
		{"f:1e+06", Operand{Imm: true, Val: Float(1e6)}},
		{"s:", Operand{Imm: true, Val: Str("")}},
		{"s:i:5", Operand{Imm: true, Val: Str("i:5")}},
		{"s: a {b\n", Operand{Imm: true, Val: Str(" a {b\n")}},
	} {
		got, err := DecodeOperand(tc.word)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("DecodeOperand(%q) = %+v, %v; want %+v", tc.word, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "1.5", "i:", "i:1.5", "i:0x10", "f:", "f:abc", "b:AAAA", "x:1", ":5", "12 "} {
		if got, err := DecodeOperand(bad); err == nil {
			t.Errorf("DecodeOperand(%q) = %+v, want an error", bad, got)
		}
	}
}

// countingPlane counts LoadChunk calls and the ids they carried.
type countingPlane struct {
	*memPlane
	loads, ids int
}

func (p *countingPlane) LoadChunk(ids []int64) (Chunk, error) {
	p.loads++
	p.ids += len(ids)
	return p.memPlane.LoadChunk(ids)
}

func TestInstallCallTakesImmediatesFromTheAction(t *testing.T) {
	// Immediates bind in argument order around the TD operands; only the
	// TDs are loaded, in one batch, and none when there are none.
	reg, _ := Lookup("python")
	dp := &countingPlane{memPlane: newMemPlane()}
	dp.vals[3] = Floats([]float64{1, 2, 3.5})
	dp.vals[4] = Int(10)
	tab := Install(tcl.New(), Host{Out: io.Discard}, PolicyRetain, nil, reg)
	if err := tab.Leaf(leafOf(t, "python", 9, "float", "s:t = sum(argv2) * argv1 + argv3 + argv4", "s:t", "i:2", "3", "f:0.25", "4"), dp); err != nil {
		t.Fatal(err)
	}
	if f, err := dp.vals[9].AsFloat(); err != nil || f != 23.25 {
		t.Fatalf("result = %v (%v), want 23.25", f, err)
	}
	if dp.loads != 1 || dp.ids != 2 {
		t.Fatalf("%d loads of %d ids, want 1 load of 2", dp.loads, dp.ids)
	}
	if err := tab.Leaf(leafOf(t, "python", 8, "integer", "s:", "s:argv1 + 1", "i:41"), dp); err != nil {
		t.Fatal(err)
	}
	if n, err := dp.vals[8].AsInt(); err != nil || n != 42 || dp.loads != 1 {
		t.Fatalf("all-immediate call: result %v (%v), loads %d; want 42 and no further load", n, err, dp.loads)
	}
}

func TestInstallArityErrors(t *testing.T) {
	reg, _ := Lookup("python")
	in := tcl.New()
	tab := Install(in, Host{Out: io.Discard}, PolicyRetain, nil, reg)
	if _, err := in.Eval(`python::eval onlyone`); err == nil ||
		!strings.Contains(err.Error(), "takes 2 argument(s)") {
		t.Fatalf("err = %v", err)
	}
	if err := tab.Leaf(leafOf(t, "python", 1, "string", "s:onlyone"), newMemPlane()); err == nil ||
		!strings.Contains(err.Error(), "takes 2 argument(s)") {
		t.Fatalf("leaf: err = %v", err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	if _, ok := Lookup("toylang"); ok {
		t.Fatal("toylang pre-registered")
	}
	reg := Registration{Name: "toylang", Sig: Signature{Fixed: 1}, New: func(h Host) Engine { return nil }}
	Register(reg)
	defer Unregister("toylang")
	if _, ok := Lookup("toylang"); !ok {
		t.Fatal("toylang not found after Register")
	}
	found := false
	for _, r := range Registered() {
		if r.Name == "toylang" {
			found = true
		}
	}
	if !found {
		t.Fatal("toylang missing from Registered()")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(reg)
}

func TestRegisterRejectsWideFixedArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fixed=3 did not panic")
		}
	}()
	Register(Registration{Name: "wide", Sig: Signature{Fixed: 3}, New: func(h Host) Engine { return nil }})
}

func TestValueConversions(t *testing.T) {
	if got := Int(42).Render(); got != "42" {
		t.Fatalf("int render = %q", got)
	}
	if got := Float(2.0).Render(); got != "2.0" {
		t.Fatalf("float render = %q", got)
	}
	if n, err := Str(" 7 ").AsInt(); err != nil || n != 7 {
		t.Fatalf("str->int = %d, %v", n, err)
	}
	if n, err := Float(3.0).AsInt(); err != nil || n != 3 {
		t.Fatalf("integral float->int = %d, %v", n, err)
	}
	if _, err := Float(3.5).AsInt(); err == nil {
		t.Fatal("3.5 converted to int")
	}
	if f, err := Int(3).AsFloat(); err != nil || f != 3.0 {
		t.Fatalf("int->float = %v, %v", f, err)
	}
	if _, err := Floats([]float64{1}).AsInt(); err == nil {
		t.Fatal("blob converted to int")
	}
	b := Int(5).AsBlob()
	if b.Elem != blob.ElemI64 || b.Count() != 1 {
		t.Fatalf("int->blob = %+v", b)
	}
	var zero Value
	if zero.Kind() != KindString || zero.Render() != "" {
		t.Fatal("zero Value is not the empty string")
	}
}

func TestJuliaEngineFreshVectorsPackToTheSameBytes(t *testing.T) {
	// Ranges and columns leave as the bytes the boxed packing gave:
	// int64 with no prototype, the prototype's view (and dims) when
	// there is one, and an error for an int64 a float64 cannot hold.
	f32 := blob.FromFloat32s([]float32{0, 0, 0, 0})
	f32.Dims = []int{2, 2}
	i64 := blob.FromInt64s([]int64{0, 0, 0, 0})
	i64.Dims = []int{4}
	wantF32 := blob.FromFloat32s([]float32{1, 2, 3, 4})
	wantF32.Dims = []int{2, 2}
	wantI64 := blob.FromInt64s([]int64{1, 2, 3, 4})
	wantI64.Dims = []int{4}
	cases := []struct {
		expr string
		args []Value
		want blob.Blob
	}{
		{"1:4", nil, blob.FromInt64s([]int64{1, 2, 3, 4})},
		{"1:0", nil, blob.FromInt64s(nil)},
		{"1:4", []Value{BlobOf(f32)}, wantF32},
		{"1:4", []Value{BlobOf(i64)}, wantI64},
		{"collect(1:4)", []Value{BlobOf(i64)}, wantI64},
		{"collect(1:4) .* 1.0", []Value{BlobOf(f32)}, wantF32},
		{"ones(3)", nil, blob.FromFloat64s([]float64{1, 1, 1})},
		{"zeros(0)", nil, blob.FromInt64s(nil)},
	}
	reg, _ := Lookup("julia")
	eng := reg.New(Host{Out: io.Discard})
	for _, tc := range cases {
		res, err := eng.Eval(Call{Expr: tc.expr, Args: tc.args, Want: KindBlob})
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		got := res.AsBlob()
		if string(got.Data) != string(tc.want.Data) || got.Elem != tc.want.Elem || fmt.Sprint(got.Dims) != fmt.Sprint(tc.want.Dims) {
			t.Fatalf("%s = %v %v %v, want %v %v %v", tc.expr, got.Elem, got.Dims, got.Data, tc.want.Elem, tc.want.Dims, tc.want.Data)
		}
	}
	_, err := eng.Eval(Call{Expr: "9007199254740993:9007199254740994", Args: []Value{BlobOf(blob.FromFloat64s([]float64{0, 0}))}, Want: KindBlob})
	if err == nil || !strings.Contains(err.Error(), "not exactly representable") {
		t.Fatalf("inexact range: %v", err)
	}
}

func TestJuliaEngineColumnOutlivesLaterWrites(t *testing.T) {
	// A column leaves as its own bytes; a later fragment writing into
	// the same array must not reach the value already handed out.
	reg, _ := Lookup("julia")
	eng := reg.New(Host{Out: io.Discard})
	first, err := eng.Eval(Call{Code: "x = ones(3)", Expr: "x", Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Eval(Call{Code: "x[1] = 5.0", Expr: "x", Want: KindBlob})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := blob.ToFloat64s(first.AsBlob())
	b, _ := blob.ToFloat64s(second.AsBlob())
	if fmt.Sprint(a) != "[1 1 1]" || fmt.Sprint(b) != "[5 1 1]" {
		t.Fatalf("first %v, second %v", a, b)
	}
}

func TestArgNamesAcrossTheTable(t *testing.T) {
	for i := 0; i < 2*len(argNames)+2; i++ {
		if got, want := argName(i), fmt.Sprintf("argv%d", i+1); got != want {
			t.Fatalf("argName(%d) = %q, want %q", i, got, want)
		}
	}
}
