package lang

// The typed interlanguage value model (Engine v2). The paper's blobutils
// layer exists so bulk scientific data moves between Swift, embedded
// interpreters, and native kernels as binary blobs rather than rendered
// text (§III-B, §III-E); Value extends that discipline to the engine
// calling convention itself: arguments and results cross the language
// boundary as a tagged union of string, int, float, and blob (with
// Fortran dims and element kind preserved), and only the string members
// ever render.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/blob"
)

// Kind tags a Value. The zero Kind is KindString, so the zero Value is
// the empty string — the result of a fragment with no expression.
type Kind uint8

// Value kinds.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBlob
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBlob:
		return "blob"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is one typed interlanguage datum: a tagged union of string,
// int64, float64, and blob. Construct with Str/Int/Float/BlobOf (or the
// vector packers); access with the As* conversions. A blob is held by
// pointer, so a Value is small enough to copy as a few words.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    *blob.Blob
}

// Str wraps a string.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// BlobOf wraps a blob (bytes + dims + element kind).
func BlobOf(b blob.Blob) Value { return Value{kind: KindBlob, b: &b} }

// Floats packs a float64 vector as a blob value (no string rendering).
func Floats(v []float64) Value { return BlobOf(blob.FromFloat64s(v)) }

// Kind returns the tag.
func (v Value) Kind() Kind { return v.kind }

// Render returns the string form of the value: the string itself,
// decimal renderings for numbers, and the raw payload bytes for blobs
// (matching turbine::value blob; element data is not formatted).
// Render is the only path by which a value becomes text — the typed
// plumbing never calls it for blob element data.
func (v Value) Render() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return renderFloat(v.f)
	case KindBlob:
		return string(v.b.Data)
	}
	return v.s
}

func renderFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eEnN") {
		s += ".0"
	}
	return s
}

// AsInt converts to int64: ints directly, integral floats exactly,
// strings by parsing. Blobs do not convert.
func (v Value) AsInt() (int64, error) {
	switch v.kind {
	case KindInt:
		return v.i, nil
	case KindFloat:
		if n := int64(v.f); float64(n) == v.f {
			return n, nil
		}
		return 0, fmt.Errorf("lang: float %v is not an integer", v.f)
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 0, 64)
		if err != nil {
			return 0, fmt.Errorf("lang: expected integer, got %q", v.s)
		}
		return n, nil
	}
	return 0, fmt.Errorf("lang: cannot convert %s to int", v.kind)
}

// AsFloat converts to float64: numbers directly, strings by parsing.
// Blobs do not convert.
func (v Value) AsFloat() (float64, error) {
	switch v.kind {
	case KindFloat:
		return v.f, nil
	case KindInt:
		return float64(v.i), nil
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, fmt.Errorf("lang: expected float, got %q", v.s)
		}
		return f, nil
	}
	return 0, fmt.Errorf("lang: cannot convert %s to float", v.kind)
}

// AsBlob converts to a blob: blobs directly (metadata intact), strings
// as their raw bytes, and numbers as one-element packed vectors.
func (v Value) AsBlob() blob.Blob {
	switch v.kind {
	case KindBlob:
		return *v.b
	case KindInt:
		return blob.FromInt64s([]int64{v.i})
	case KindFloat:
		return blob.FromFloat64s([]float64{v.f})
	}
	return blob.New([]byte(v.s))
}

// Owned returns v with a blob's bytes copied: what a callee keeps of a
// value lent to it for one call (see Call).
func (v Value) Owned() Value {
	if v.kind == KindBlob {
		v = BlobOf(blob.Blob{Data: append([]byte(nil), v.b.Data...), Dims: v.b.Dims, Elem: v.b.Elem})
	}
	return v
}

// AsString returns the string form (an alias of Render, named for
// symmetry with the other As* conversions).
func (v Value) AsString() string { return v.Render() }
