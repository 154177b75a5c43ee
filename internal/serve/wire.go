package serve

import (
	"bytes"
	"encoding/base64"
	"fmt"

	"repro/internal/adlb"
	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/lang"
)

// WireValue is the JSON form of a typed lang.Value crossing the service
// boundary: scalars inline, blobs base64 with their logical dims and
// element kind so bulk numeric data round-trips shape and type (the
// blobutils contract over HTTP). It is an edge type: EvalFragment converts
// arguments with FromWire once on the way in and the result with ToWire
// once on the way out, and nothing inside the warm world sees it.
type WireValue struct {
	Kind  string  `json:"kind"` // "string" | "int" | "float" | "blob"
	Str   string  `json:"str,omitempty"`
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
	Blob  string  `json:"blob,omitempty"` // base64 raw element bytes
	Dims  []int   `json:"dims,omitempty"` // logical extents, column-major
	Elem  string  `json:"elem,omitempty"` // "bytes" | "f64" | "f32" | "i32" | "i64"
}

func elemName(e blob.Elem) string {
	switch e {
	case blob.ElemF64:
		return "f64"
	case blob.ElemF32:
		return "f32"
	case blob.ElemI32:
		return "i32"
	case blob.ElemI64:
		return "i64"
	}
	return "bytes"
}

func elemOf(name string) (blob.Elem, error) {
	switch name {
	case "", "bytes":
		return blob.ElemBytes, nil
	case "f64":
		return blob.ElemF64, nil
	case "f32":
		return blob.ElemF32, nil
	case "i32":
		return blob.ElemI32, nil
	case "i64":
		return blob.ElemI64, nil
	}
	return 0, fmt.Errorf("serve: unknown blob element kind %q", name)
}

// ToWire converts a typed value to its JSON form.
func ToWire(v lang.Value) WireValue {
	switch v.Kind() {
	case lang.KindInt:
		n, _ := v.AsInt()
		return WireValue{Kind: "int", Int: n}
	case lang.KindFloat:
		f, _ := v.AsFloat()
		return WireValue{Kind: "float", Float: f}
	case lang.KindBlob:
		b := v.AsBlob()
		return WireValue{
			Kind: "blob",
			Blob: base64.StdEncoding.EncodeToString(b.Data),
			Dims: b.Dims,
			Elem: elemName(b.Elem),
		}
	}
	return WireValue{Kind: "string", Str: v.AsString()}
}

// FromWire converts a JSON value back to a typed lang.Value. A blob must
// hold a whole number of its elements and, when dims are given, exactly
// their product: the engines trust a blob's shape.
func FromWire(w WireValue) (lang.Value, error) {
	switch w.Kind {
	case "", "string":
		return lang.Str(w.Str), nil
	case "int":
		return lang.Int(w.Int), nil
	case "float":
		return lang.Float(w.Float), nil
	case "blob":
		data, err := base64.StdEncoding.DecodeString(w.Blob)
		if err != nil {
			return lang.Value{}, fmt.Errorf("serve: bad blob base64: %w", err)
		}
		elem, err := elemOf(w.Elem)
		if err != nil {
			return lang.Value{}, err
		}
		if len(data)%elem.Size() != 0 {
			return lang.Value{}, fmt.Errorf("serve: blob of %d bytes is not a whole number of %s elements", len(data), elem)
		}
		if n := len(data) / elem.Size(); len(w.Dims) > 0 && !dimsHold(w.Dims, n) {
			return lang.Value{}, fmt.Errorf("serve: blob dims %v do not describe %d elements", w.Dims, n)
		}
		return lang.BlobOf(blob.Blob{Data: data, Dims: w.Dims, Elem: elem}), nil
	}
	return lang.Value{}, fmt.Errorf("serve: unknown value kind %q", w.Kind)
}

// dimsHold reports whether dims are non-negative extents whose product is
// n, without overflowing on hostile extents.
func dimsHold(dims []int, n int) bool {
	prod := 1
	for _, d := range dims {
		if d < 0 || (d > 0 && prod > n/d) {
			return false
		}
		prod *= d
	}
	return prod == n
}

func wantOf(name string) (lang.Kind, error) {
	switch name {
	case "", "string":
		return lang.KindString, nil
	case "int":
		return lang.KindInt, nil
	case "float":
		return lang.KindFloat, nil
	case "blob":
		return lang.KindBlob, nil
	}
	return 0, fmt.Errorf("serve: unknown result kind %q", name)
}

// Inside the warm world a fragment work item is one chunk frame
// (adlb.AppendChunkFrame): header rows, then one row per value, so blobs
// ride as raw bytes. The pairs below are the only code that knows the rows.

// fragTask is one fragment evaluation travelling from the gateway to a
// worker rank through the ADLB work queues. Rows: request id, tenant,
// lang, code, expr, want kind, reinit flag, then one row per argument.
type fragTask struct {
	ReqID  int64
	Tenant string
	Lang   string
	Reinit bool
	lang.Call
}

// fragResp is one completed evaluation travelling from a worker to the
// collector rank. Rows: request id, output, error text, retriable flag,
// value. ReqID -1 is the shutdown sentinel the gateway sends the collector
// directly.
type fragResp struct {
	ReqID     int64
	Output    string // interpreter prints during this eval
	Err       string
	Retriable bool
	Value     lang.Value
}

const shutdownReqID = -1

// Header row kinds of the two frames; a task's arguments follow its header.
var (
	taskHeader = []byte{chunk.KindInt, chunk.KindString, chunk.KindString,
		chunk.KindString, chunk.KindString, chunk.KindInt, chunk.KindInt}
	respHeader = []byte{chunk.KindInt, chunk.KindString, chunk.KindString, chunk.KindInt}
)

func flag(b bool) lang.Value {
	if b {
		return lang.Int(1)
	}
	return lang.Int(0)
}

func encodeFrame(vals []lang.Value) ([]byte, error) {
	c, err := lang.ValuesToChunk(vals)
	if err != nil {
		return nil, err
	}
	return adlb.AppendChunkFrame(nil, &c)
}

// decodeFrame checks a frame's leading row kinds against header and
// unboxes every row. Payloads are copied out of the frame: arguments may
// be retained by a session's interpreter and results cross to the request
// goroutine, both past the ADLB client's next call.
func decodeFrame(frame, header []byte) ([]lang.Value, error) {
	var c chunk.Chunk
	if err := adlb.DecodeChunkFrame(frame, &c); err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(c.Kinds, header) || bytes.IndexByte(c.Kinds, chunk.KindVoid) >= 0 {
		return nil, fmt.Errorf("serve: frame rows do not match the layout")
	}
	return lang.ChunkToValues(c, true)
}

// rowInt reads a header row decodeFrame has already checked to be an int.
func rowInt(v lang.Value) int64 {
	n, _ := v.AsInt()
	return n
}

// newFragTask converts a request at the edge: its want kind and every
// argument are checked and decoded here, once, so a malformed request is
// refused before it costs a worker. The caller assigns ReqID.
func newFragTask(req FragmentRequest) (fragTask, error) {
	t := fragTask{Tenant: req.Tenant, Lang: req.Lang, Reinit: req.Reinit,
		Call: lang.Call{Code: req.Code, Expr: req.Expr, Args: make([]lang.Value, len(req.Args))}}
	var err error
	if t.Want, err = wantOf(req.Want); err != nil {
		return t, err
	}
	for i, a := range req.Args {
		if t.Args[i], err = FromWire(a); err != nil {
			return t, fmt.Errorf("serve: argument %d: %w", i+1, err)
		}
	}
	return t, nil
}

func (t fragTask) encode() ([]byte, error) {
	return encodeFrame(append([]lang.Value{lang.Int(t.ReqID), lang.Str(t.Tenant), lang.Str(t.Lang),
		lang.Str(t.Code), lang.Str(t.Expr), lang.Int(int64(t.Want)), flag(t.Reinit)}, t.Args...))
}

func decodeTask(frame []byte) (fragTask, error) {
	v, err := decodeFrame(frame, taskHeader)
	if err != nil {
		return fragTask{}, err
	}
	want := rowInt(v[5])
	if want < 0 || want > int64(lang.KindBlob) {
		return fragTask{}, fmt.Errorf("serve: task frame: want kind %d out of range", want)
	}
	return fragTask{
		ReqID: rowInt(v[0]), Tenant: v[1].AsString(), Lang: v[2].AsString(), Reinit: rowInt(v[6]) != 0,
		Call: lang.Call{Code: v[3].AsString(), Expr: v[4].AsString(), Want: lang.Kind(want),
			Args: v[len(taskHeader):]},
	}, nil
}

func (r fragResp) encode() ([]byte, error) {
	return encodeFrame([]lang.Value{lang.Int(r.ReqID), lang.Str(r.Output),
		lang.Str(r.Err), flag(r.Retriable), r.Value})
}

func decodeResp(frame []byte) (fragResp, error) {
	v, err := decodeFrame(frame, respHeader)
	if err != nil {
		return fragResp{}, err
	}
	if len(v) != len(respHeader)+1 {
		return fragResp{}, fmt.Errorf("serve: response frame: %d rows, want %d", len(v), len(respHeader)+1)
	}
	return fragResp{ReqID: rowInt(v[0]), Output: v[1].AsString(), Err: v[2].AsString(),
		Retriable: rowInt(v[3]) != 0, Value: v[4]}, nil
}
