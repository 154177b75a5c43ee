package serve

// The in-world frame pair: fragTask and fragResp round-trip every value
// shape bit for bit, malformed frames are errors rather than panics, and
// JSON/base64 stay at the HTTP edge.

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adlb"
	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/lang"
)

// nastyStrings are code/expr/output texts a frame must carry untouched.
var nastyStrings = []string{
	"",
	"x = 6 * 7",
	"a\x00b\x00",
	"\xff\xfe invalid \xc3\x28 utf-8",
	"}{ {{ }} proc p {} { [exit] } \\",
	"snowman ☃ and newline\n\ttab",
}

func frameValues() []lang.Value {
	vals := []lang.Value{
		lang.Int(0), lang.Int(-1), lang.Int(math.MaxInt64), lang.Int(math.MinInt64),
		lang.Float(0), lang.Float(math.Copysign(0, -1)), lang.Float(math.Inf(-1)),
		lang.Float(math.Float64frombits(0x7ff8000000000001)), // quiet NaN with a payload
		lang.Float(math.Float64frombits(0x7ff0000000000001)), // signalling NaN
		lang.Float(math.Float64frombits(1)),                  // smallest denormal
		lang.BlobOf(blob.Blob{}),                             // empty blob
		lang.BlobOf(blob.Blob{Data: []byte{}, Dims: []int{0}, Elem: blob.ElemF64}),
		lang.BlobOf(blob.Blob{Data: []byte("raw\x00bytes"), Elem: blob.ElemBytes}),
		lang.BlobOf(blob.Blob{Data: make([]byte, 48), Dims: []int{2, 3}, Elem: blob.ElemF64}),
		lang.BlobOf(blob.Blob{Data: make([]byte, 24), Dims: []int{6}, Elem: blob.ElemF32}),
		lang.BlobOf(blob.Blob{Data: make([]byte, 24), Dims: []int{1, 2, 3}, Elem: blob.ElemI32}),
		lang.BlobOf(blob.Blob{Data: make([]byte, 16), Dims: []int{2}, Elem: blob.ElemI64}),
		lang.BlobOf(blob.FromFloat64s([]float64{math.NaN(), math.Float64frombits(1), -0.0})),
	}
	for _, s := range nastyStrings {
		vals = append(vals, lang.Str(s))
	}
	return vals
}

func frameTasks() []fragTask {
	vals := frameValues()
	tasks := []fragTask{
		{}, // zero args, empty everything
		{ReqID: math.MaxInt64, Tenant: "acme", Lang: "python", Reinit: true,
			Call: lang.Call{Code: "x = 1", Expr: "x", Want: lang.KindBlob}},
		{ReqID: 7, Tenant: "t", Lang: "tcl", Call: lang.Call{Args: vals}}, // every value shape at once
	}
	for i, s := range nastyStrings {
		tasks = append(tasks, fragTask{ReqID: int64(i), Tenant: s, Lang: s,
			Call: lang.Call{Code: s, Expr: s, Want: lang.Kind(i % 4), Args: []lang.Value{lang.Str(s)}}})
	}
	return tasks
}

func frameResps() []fragResp {
	resps := []fragResp{
		{ReqID: shutdownReqID},
		{ReqID: 3, Err: "python: name \"x\" is not defined", Retriable: true, Output: "partial\n"},
	}
	for i, v := range frameValues() {
		resps = append(resps, fragResp{ReqID: int64(i), Value: v, Output: nastyStrings[i%len(nastyStrings)]})
	}
	return resps
}

// sameValue compares bit for bit: NaNs by payload, blobs by bytes, element
// kind and extents.
func sameValue(a, b lang.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case lang.KindInt:
		x, _ := a.AsInt()
		y, _ := b.AsInt()
		return x == y
	case lang.KindFloat:
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		return math.Float64bits(x) == math.Float64bits(y)
	case lang.KindBlob:
		x, y := a.AsBlob(), b.AsBlob()
		if len(x.Dims) != len(y.Dims) {
			return false
		}
		for i := range x.Dims {
			if x.Dims[i] != y.Dims[i] {
				return false
			}
		}
		return x.Elem == y.Elem && bytes.Equal(x.Data, y.Data)
	}
	return a.AsString() == b.AsString()
}

func sameTask(a, b fragTask) bool {
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !sameValue(a.Args[i], b.Args[i]) {
			return false
		}
	}
	a.Args, b.Args = nil, nil
	return reflect.DeepEqual(a, b)
}

func sameResp(a, b fragResp) bool {
	same := sameValue(a.Value, b.Value)
	a.Value, b.Value = lang.Value{}, lang.Value{}
	return same && reflect.DeepEqual(a, b)
}

func TestFragFramesRoundTrip(t *testing.T) {
	for i, task := range frameTasks() {
		frame, err := task.encode()
		if err != nil {
			t.Fatalf("task %d: encode: %v", i, err)
		}
		back, err := decodeTask(frame)
		if err != nil {
			t.Fatalf("task %d: decode: %v", i, err)
		}
		if !sameTask(task, back) {
			t.Errorf("task %d: round trip changed it:\n got %+v\nwant %+v", i, back, task)
		}
	}
	for i, resp := range frameResps() {
		frame, err := resp.encode()
		if err != nil {
			t.Fatalf("resp %d: encode: %v", i, err)
		}
		back, err := decodeResp(frame)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if !sameResp(resp, back) {
			t.Errorf("resp %d: round trip changed it:\n got %+v\nwant %+v", i, back, resp)
		}
	}
}

// TestFragFramesCopyOut pins the copy-on-escape rule: decoded payloads
// must survive the frame being overwritten, as a pooled ADLB frame is.
func TestFragFramesCopyOut(t *testing.T) {
	task := fragTask{Call: lang.Call{Code: "code", Args: []lang.Value{lang.Floats([]float64{1, 2, 3})}}}
	frame, err := task.encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeTask(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xAA
	}
	if !sameTask(task, back) {
		t.Fatalf("decoded task aliases its frame: %+v", back)
	}
}

type namedFrame struct {
	name  string
	frame []byte
}

// malformedFrames are frames both decoders must refuse.
func malformedFrames(t testing.TB) []namedFrame {
	frame := func(vals ...lang.Value) []byte {
		b, err := encodeFrame(vals)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	i, s := lang.Int, lang.Str
	good := frame(i(1), s("t"), s("python"), s(""), s("1"), i(1), i(0))
	var void chunk.Chunk
	void.AppendVoid()
	voidFrame, err := adlb.AppendChunkFrame(nil, &void)
	if err != nil {
		t.Fatal(err)
	}
	return []namedFrame{
		{"empty", nil},
		{"truncated", good[:len(good)-3]},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
		{"short", frame(i(1), s("t"), s("python"))},
		{"mis-kinded tenant", frame(i(1), i(2), s("python"), s(""), s("1"), i(1), i(0))},
		{"mis-kinded id", frame(s("1"), s("t"), s("python"), s(""), s("1"), i(1), i(0))},
		{"want too large", frame(i(1), s("t"), s("python"), s(""), s("1"), i(4), i(0))},
		{"want negative", frame(i(1), s("t"), s("python"), s(""), s("1"), i(-1), i(0))},
		{"resp without value", frame(i(1), s("out"), s(""), i(0))},
		{"resp with two", frame(i(1), s("out"), s(""), i(0), i(1), i(2))},
		{"void row", voidFrame},
	}
}

func TestFragFramesRejectMalformed(t *testing.T) {
	for _, m := range malformedFrames(t) {
		if task, err := decodeTask(m.frame); err == nil {
			t.Errorf("%s: decodeTask accepted it: %+v", m.name, task)
		}
		if resp, err := decodeResp(m.frame); err == nil {
			t.Errorf("%s: decodeResp accepted it: %+v", m.name, resp)
		}
	}
}

// FuzzFragFrames feeds arbitrary bytes to both decoders: they must never
// panic, and whatever they accept must survive an encode/decode trip.
func FuzzFragFrames(f *testing.F) {
	for _, task := range frameTasks() {
		frame, err := task.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, resp := range frameResps() {
		frame, err := resp.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, m := range malformedFrames(f) {
		f.Add(m.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if task, err := decodeTask(frame); err == nil {
			again, err := task.encode()
			if err != nil {
				t.Fatalf("accepted task frame does not re-encode: %v", err)
			}
			if back, err := decodeTask(again); err != nil || !sameTask(task, back) {
				t.Fatalf("accepted task frame does not round-trip (%v)", err)
			}
		}
		if resp, err := decodeResp(frame); err == nil {
			again, err := resp.encode()
			if err != nil {
				t.Fatalf("accepted response frame does not re-encode: %v", err)
			}
			if back, err := decodeResp(again); err != nil || !sameResp(resp, back) {
				t.Fatalf("accepted response frame does not round-trip (%v)", err)
			}
		}
	})
}

// TestFromWireRejectsHostileBlobs: the engines index a blob by its dims
// and element kind, so the edge refuses shapes the payload cannot back.
func TestFromWireRejectsHostileBlobs(t *testing.T) {
	eight := ToWire(lang.Floats([]float64{1})).Blob
	seven := ToWire(lang.BlobOf(blob.New(make([]byte, 7)))).Blob
	bad := []WireValue{
		{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{-1}},
		{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{-1, -1}},
		{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{1 << 40, 1 << 40}},
		{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{math.MaxInt, 2}},
		{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{5}},
		{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{0}},
		{Kind: "blob", Blob: eight, Elem: "f32", Dims: []int{1}},
		{Kind: "blob", Blob: seven, Elem: "f64"},
		{Kind: "blob", Blob: seven, Elem: "i32"},
		{Kind: "blob", Blob: "not base64!", Elem: "f64"},
		{Kind: "blob", Blob: eight, Elem: "complex128"},
	}
	for _, w := range bad {
		if v, err := FromWire(w); err == nil {
			t.Errorf("FromWire(%+v) = %v, want an error", w, v.AsBlob())
		}
	}
	good := []WireValue{
		{Kind: "blob", Blob: eight, Elem: "f64"},
		{Kind: "blob", Blob: eight, Elem: "f64", Dims: []int{1}},
		{Kind: "blob", Blob: eight, Elem: "f32", Dims: []int{2, 1}},
		{Kind: "blob", Blob: eight, Dims: []int{2, 2, 2}},
		{Kind: "blob", Blob: seven},
		{Kind: "blob", Elem: "i64", Dims: []int{0, 1 << 40}},
	}
	for _, w := range good {
		v, err := FromWire(w)
		if err != nil {
			t.Errorf("FromWire(%+v): %v", w, err)
			continue
		}
		if back := ToWire(v); back.Blob != w.Blob || !reflect.DeepEqual(back.Dims, w.Dims) {
			t.Errorf("FromWire(%+v) round-trips to %+v", w, back)
		}
	}
}

// TestNoJSONInsideTheWarmWorld: JSON and base64 are the HTTP edge's
// encoding. Only http.go (bodies) and wire.go (WireValue) may import
// them, and the in-world payload types carry no struct tags for an
// encoder to find.
func TestNoJSONInsideTheWarmWorld(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	edge := map[string]bool{"http.go": true, "wire.go": true}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || edge[name] {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/json" || path == "encoding/base64" {
				t.Errorf("%s imports %s: only %v may", name, path, []string{"http.go", "wire.go"})
			}
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(fragTask{}), reflect.TypeOf(fragResp{})} {
		for i := 0; i < typ.NumField(); i++ {
			if tag := typ.Field(i).Tag; tag != "" {
				t.Errorf("%s.%s carries struct tag %q", typ.Name(), typ.Field(i).Name, tag)
			}
		}
	}
}
