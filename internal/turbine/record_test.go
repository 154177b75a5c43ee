package turbine

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adlb"
	"repro/internal/chunk"
	"repro/internal/lang"
)

// recordLeaves are leaf calls of the shapes the compiler emits: TD and
// immediate arguments in any order, every immediate kind, no variadic
// arguments, and strings holding bytes Tcl would have to quote.
var recordLeaves = []lang.Leaf{
	{Engine: "python", Out: 8123, OutType: "float", Args: []lang.Operand{
		{Imm: true, Val: lang.Str("")}, {Imm: true, Val: lang.Str("argv1*2+1")}, {ID: 8117}}},
	{Engine: "r", Out: 1 << 40, OutType: "blob", Args: []lang.Operand{
		{ID: -3}, {Imm: true, Val: lang.Str("x <- {argv1}\n\"]$")}, {Imm: true, Val: lang.Int(math.MinInt64)},
		{Imm: true, Val: lang.Float(-0.25)}, {ID: 7}, {ID: 7}}},
	{Engine: "julia", Out: 5, OutType: "integer", Args: []lang.Operand{{Imm: true, Val: lang.Str("s:i:5")}}},
	{Engine: "sh", Out: 0, OutType: "void"},
	{Engine: "", Out: -1, OutType: "", Args: []lang.Operand{{Imm: true, Val: lang.Float(math.Inf(1))}}},
}

// TestLeafRecordRoundTrip: a leaf call framed as a record decodes to the
// same call, and a script record to the same script.
func TestLeafRecordRoundTrip(t *testing.T) {
	var scratch chunk.Chunk
	var r record // decoded into again and again, as a worker does
	for _, l := range recordLeaves {
		rec, err := leafRecord(nil, &l, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		script, isLeaf, err := r.decode(rec)
		got := r.leaf
		if err != nil || !isLeaf || script != "" {
			t.Fatalf("%+v: decoded script %q, leaf %v, err %v", l, script, isLeaf, err)
		}
		if len(l.Args) == 0 && len(got.Args) == 0 {
			l.Args = got.Args
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, l)
		}
	}
	for _, script := range []string{"", "u:f 9 i:1 7", "sw:vunpack 5 float 4\n{\x00"} {
		rec, err := scriptRecord(script)
		if err != nil {
			t.Fatal(err)
		}
		got, isLeaf, err := r.decode(rec)
		if err != nil || isLeaf || got != script {
			t.Fatalf("script %q: decoded %q, leaf %v, err %v", script, got, isLeaf, err)
		}
	}
	blobArg := lang.Leaf{Engine: "python", OutType: "blob", Args: []lang.Operand{{Imm: true, Val: lang.Floats([]float64{1})}}}
	if _, err := leafRecord(nil, &blobArg, &scratch); err == nil || !strings.Contains(err.Error(), "not an immediate") {
		t.Fatalf("blob immediate: err = %v", err)
	}
}

// FuzzWorkRecord: arbitrary bytes into the worker's record decoder give a
// script, a leaf or an error — never a panic, an out-of-range read or an
// allocation the bytes do not pay for — and whatever decodes re-encodes
// to the bytes it came from.
func FuzzWorkRecord(f *testing.F) {
	var scratch chunk.Chunk
	for _, l := range recordLeaves {
		rec, err := leafRecord(nil, &l, &scratch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
	}
	rec, err := scriptRecord("turbine::vpack_gather 12 float 10")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add([]byte("python::eval {} 1"))
	f.Add([]byte{})
	// Rows that frame well but are no record: a form count beyond the
	// rows, a form naming a blob, an int where the engine name goes.
	bad := func(build func(c *chunk.Chunk)) []byte {
		var c chunk.Chunk
		build(&c)
		rec, err := adlb.AppendChunkFrame(nil, &c)
		if err != nil {
			f.Fatal(err)
		}
		return rec
	}
	f.Add(bad(func(c *chunk.Chunk) {
		c.AppendString("python")
		c.AppendInt(1)
		c.AppendString("float")
		c.AppendString(strings.Repeat("v", 1<<16))
	}))
	f.Add(bad(func(c *chunk.Chunk) {
		c.AppendString("python")
		c.AppendInt(1)
		c.AppendString("float")
		c.AppendString("v")
		c.AppendBlob([]byte{1}, 0, nil)
	}))
	f.Add(bad(func(c *chunk.Chunk) { c.AppendInt(1) }))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r record
		script, isLeaf, err := r.decode(payload)
		if err != nil {
			return
		}
		var again []byte
		if isLeaf {
			var c chunk.Chunk
			again, err = leafRecord(nil, &r.leaf, &c)
		} else {
			again, err = scriptRecord(script)
		}
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, payload)
		}
	})
}
