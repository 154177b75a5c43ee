package blob

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat64RoundTrip(t *testing.T) {
	in := []float64{0, 1, -1, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64}
	out, err := ToFloat64s(FromFloat64s(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("elem %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestFloat64Property(t *testing.T) {
	f := func(v []float64) bool {
		out, err := ToFloat64s(FromFloat64s(v))
		if err != nil || len(out) != len(v) {
			return false
		}
		for i := range v {
			if out[i] != v[i] && !(math.IsNaN(out[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt32RoundTrip(t *testing.T) {
	f := func(v []int32) bool {
		out, err := ToInt32s(FromInt32s(v))
		if err != nil || len(out) != len(v) {
			return false
		}
		for i := range v {
			if out[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	f := func(v []int64) bool {
		out, err := ToInt64s(FromInt64s(v))
		if err != nil || len(out) != len(v) {
			return false
		}
		for i := range v {
			if out[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMisalignedErrors(t *testing.T) {
	if _, err := ToFloat64s(New(make([]byte, 7))); err == nil {
		t.Fatal("expected error for 7 bytes as float64s")
	}
	if _, err := ToInt32s(New(make([]byte, 5))); err == nil {
		t.Fatal("expected error for 5 bytes as int32s")
	}
	if _, err := ToInt64s(New(make([]byte, 9))); err == nil {
		t.Fatal("expected error for 9 bytes as int64s")
	}
}

func TestBlobString(t *testing.T) {
	if s := New([]byte{1, 2}).String(); s != "blob[2 bytes]" {
		t.Fatalf("got %q", s)
	}
	b := Blob{Data: []byte{1}, Dims: []int{1}}
	if s := b.String(); s != "blob[1 bytes, dims [1]]" {
		t.Fatalf("got %q", s)
	}
}

func TestElemViews(t *testing.T) {
	if FromFloat64s(nil).Elem != ElemF64 || FromFloat32s(nil).Elem != ElemF32 ||
		FromInt32s(nil).Elem != ElemI32 || FromInt64s(nil).Elem != ElemI64 {
		t.Fatal("packers do not tag their element kind")
	}
	if New([]byte{1}).Elem != ElemBytes {
		t.Fatal("raw blobs must be ElemBytes")
	}
	b := FromFloat32s([]float32{1, 2, 3})
	if b.Count() != 3 || b.Elem.Size() != 4 {
		t.Fatalf("count/size = %d/%d", b.Count(), b.Elem.Size())
	}
	back, err := ToFloat32s(b)
	if err != nil || back[2] != 3 {
		t.Fatalf("float32 round trip = %v, %v", back, err)
	}
}

func TestFloatsDecodesAnyView(t *testing.T) {
	cases := []struct {
		b    Blob
		want []float64
	}{
		{FromFloat64s([]float64{1.5, -2}), []float64{1.5, -2}},
		{FromFloat32s([]float32{0.25, 4}), []float64{0.25, 4}},
		{FromInt32s([]int32{-7, 7}), []float64{-7, 7}},
		{FromInt64s([]int64{9}), []float64{9}},
		{New([]byte{0, 255}), []float64{0, 255}},
	}
	for _, tc := range cases {
		got, err := tc.b.Floats()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%v: len %d", tc.b, len(got))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%v: got %v want %v", tc.b, got, tc.want)
			}
		}
	}
}

func TestPackLikePrefersPrototype(t *testing.T) {
	proto := FromInt32s([]int32{1, 2, 3})
	proto.Dims = []int{3, 1}

	// Representable values repack bit-exact under the prototype's view.
	out := PackLike([]float64{4, 5, 6}, proto)
	if out.Elem != ElemI32 || len(out.Dims) != 2 {
		t.Fatalf("repack = %+v", out)
	}
	v, _ := ToInt32s(Blob{Data: out.Data})
	if v[0] != 4 || v[2] != 6 {
		t.Fatalf("values = %v", v)
	}

	// Unrepresentable values fall back to flat float64.
	out = PackLike([]float64{0.5, 1, 2}, proto)
	if out.Elem != ElemF64 || out.Dims != nil {
		t.Fatalf("fallback = %+v", out)
	}

	// Length changes drop the prototype (and its dims).
	out = PackLike([]float64{1, 2}, proto)
	if out.Elem != ElemF64 || out.Dims != nil {
		t.Fatalf("length change = %+v", out)
	}

	// float32 identity stays bit-exact.
	p32 := FromFloat32s([]float32{0.1, -2.5})
	xs, _ := p32.Floats()
	out = PackLike(xs, p32)
	if out.Elem != ElemF32 || string(out.Data) != string(p32.Data) {
		t.Fatalf("f32 identity not bit-exact: %+v", out)
	}
}
