package pylite

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/vecview"
)

// val is a value in evaluation and in a slot. An int, bool or float is
// held unboxed, in n, so arithmetic on it allocates nothing; x keeps its
// boxed form once it has one (a literal, a value that came in boxed, or
// one that escaped), so a number is boxed at most once. Any other value
// is kBoxed and lives in x (nil is None). The zero val is kUnset, an
// empty slot; evaluation never yields one. A val is four words at most,
// so the compiler keeps it in registers.
type val struct {
	k kind
	n uint64 // the bits of a kInt's int64 (kBool: 0 or 1) or a kFloat's float64
	x Value
}

type kind uint8

const (
	kUnset kind = iota
	kBoxed
	kInt // kInt and above are the numbers arith takes
	kBool
	kFloat
)

func intv(i int64) val     { return val{k: kInt, n: uint64(i)} }
func floatv(f float64) val { return val{k: kFloat, n: math.Float64bits(f)} }
func boolv(b bool) val     { return val{k: kBool, n: uint64(boolToInt(b))} }

var none = val{k: kBoxed}

// unbox is the one way a Value becomes a val.
func unbox(v Value) val {
	switch n := v.(type) {
	case int64:
		return val{k: kInt, n: uint64(n), x: v}
	case float64:
		return val{k: kFloat, n: math.Float64bits(n), x: v}
	case bool:
		return val{k: kBool, n: uint64(boolToInt(n)), x: v}
	}
	return val{k: kBoxed, x: v}
}

// box returns v as a Value, keeping a number's boxed form in v.x: called
// on a slot, a number escapes from it with one allocation at most.
func (v *val) box() Value {
	switch v.k {
	case kInt:
		if v.x == nil {
			v.x = v.int()
		}
	case kFloat:
		if v.x == nil {
			v.x = v.float()
		}
	case kBool:
		return v.n != 0
	}
	return v.x
}

func (v val) num() bool { return v.k >= kInt }

// int is a kInt or kBool as an int64.
func (v val) int() int64 { return int64(v.n) }

// float is a number as a float64.
func (v val) float() float64 {
	if v.k == kFloat {
		return math.Float64frombits(v.n)
	}
	return float64(int64(v.n))
}

func (v val) truthy() bool {
	switch v.k {
	case kInt, kBool:
		return v.n != 0
	case kFloat:
		return v.float() != 0
	}
	return truthy(v.x)
}

// opcode is an operator, decoded once at parse time.
type opcode uint8

const (
	opAdd opcode = iota // opAdd..opNe are arith's, on numbers
	opSub
	opMul
	opDiv
	opFloorDiv
	opMod
	opPow
	opLt
	opLe
	opGt
	opGe
	opEq
	opNe
	opIn
	opAnd // and, or, unary - and not are evaluated in place
	opOr
	opNeg
	opNot
)

var opText = [...]string{"+", "-", "*", "/", "//", "%", "**", "<", "<=", ">", ">=", "==", "!=", "in"}

// binOps maps a binary operator's token to its opcode (and/or excepted).
var binOps = map[string]opcode{}

// augOps maps an augmented assignment's token to its operator.
var augOps = map[string]opcode{}

func init() {
	for op := opAdd; op <= opIn; op++ {
		binOps[opText[op]] = op
		if op <= opPow {
			augOps[opText[op]+"="] = op
		}
	}
}

// binv applies a binary operator to evaluated operands: numbers go
// straight to arith, anything else through objop on boxed forms.
func binv(op opcode, l, r val) (val, error) {
	if op <= opNe && l.num() && r.num() {
		return arith(op, l, r)
	}
	v, err := objop(op, l.box(), r.box())
	return unbox(v), err
}

// binop is the operator on boxed values (sorted, min and max use it).
func binop(op opcode, l, r Value) (Value, error) {
	lv, rv := unbox(l), unbox(r)
	if op <= opNe && lv.num() && rv.num() {
		v, err := arith(op, lv, rv)
		return v.box(), err
	}
	return objop(op, l, r)
}

// arith is pylite's one implementation of numeric operators, on unboxed
// ints, bools and floats. A bool counts as 0 or 1; two ints (or bools)
// stay integral except under /, and a float operand makes the result a
// float.
func arith(op opcode, l, r val) (val, error) {
	if l.k != kFloat && r.k != kFloat {
		a, b := l.int(), r.int()
		switch op {
		case opAdd:
			return intv(a + b), nil
		case opSub:
			return intv(a - b), nil
		case opMul:
			return intv(a * b), nil
		case opDiv:
			if b == 0 {
				return val{}, errDivZero
			}
			return floatv(float64(a) / float64(b)), nil // Python 3 true division
		case opFloorDiv:
			if b == 0 {
				return val{}, errDivZero
			}
			q := a / b
			if (a%b != 0) && ((a < 0) != (b < 0)) {
				q--
			}
			return intv(q), nil
		case opMod:
			if b == 0 {
				return val{}, errDivZero
			}
			m := a % b
			if m != 0 && ((a < 0) != (b < 0)) {
				m += b
			}
			return intv(m), nil
		case opPow:
			if b < 0 {
				return floatv(math.Pow(float64(a), float64(b))), nil
			}
			return intv(vecview.IntPow(a, b)), nil
		case opEq:
			return boolv(a == b), nil
		case opNe:
			return boolv(a != b), nil
		}
		return boolv(cmpResult(op, cmpInt(a, b))), nil
	}
	if op == opEq || op == opNe {
		return boolv(numEqual(l, r) == (op == opEq)), nil
	}
	a, b := l.float(), r.float()
	switch op {
	case opAdd:
		return floatv(a + b), nil
	case opSub:
		return floatv(a - b), nil
	case opMul:
		return floatv(a * b), nil
	case opDiv:
		if b == 0 {
			return val{}, errDivZero
		}
		return floatv(a / b), nil
	case opFloorDiv:
		if b == 0 {
			return val{}, errDivZero
		}
		return floatv(math.Floor(a / b)), nil
	case opMod:
		if b == 0 {
			return val{}, errDivZero
		}
		return floatv(math.Mod(math.Mod(a, b)+b, b)), nil
	case opPow:
		return floatv(math.Pow(a, b)), nil
	}
	return boolv(cmpResult(op, cmpFloat(a, b))), nil
}

var errDivZero = fmt.Errorf("pylite: division by zero")

// numEqual is Python's == on numbers: True, 1 and 1.0 are one number,
// and an int equals a float only when they are the same real number.
func numEqual(l, r val) bool {
	switch {
	case l.k != kFloat && r.k != kFloat:
		return l.n == r.n
	case l.k == kFloat && r.k == kFloat:
		return l.float() == r.float()
	case l.k == kFloat:
		return floatIsInt(l.float(), r.int())
	}
	return floatIsInt(r.float(), l.int())
}

func floatIsInt(f float64, i int64) bool {
	return f >= -0x1p63 && f < 0x1p63 && int64(f) == i && float64(i) == f
}

// dictKey is the form a Dict files a key under: a bool, or a float that
// equals an int, files as that int, so equal numbers are one key.
func dictKey(k Value) Value {
	switch x := k.(type) {
	case bool:
		return boolToInt(x)
	case float64:
		if i := int64(x); floatIsInt(x, i) {
			return i
		}
	}
	return k
}

// objop is everything binop does beyond arith: strings, membership,
// lists and equality of non-numbers.
func objop(op opcode, l, r Value) (Value, error) {
	// String operations.
	if ls, ok := l.(string); ok && op != opIn {
		switch op {
		case opAdd:
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		case opMul:
			if n, ok := r.(int64); ok {
				return strings.Repeat(ls, int(n)), nil
			}
		case opMod:
			return pyFormat(ls, r)
		case opEq, opNe, opLt, opLe, opGt, opGe:
			if rs, ok := r.(string); ok {
				return cmpResult(op, strings.Compare(ls, rs)), nil
			}
			if op == opEq {
				return false, nil
			}
			if op == opNe {
				return true, nil
			}
		}
	}
	if op == opIn {
		switch c := r.(type) {
		case *List:
			for _, it := range c.Items {
				if equal(l, it) {
					return true, nil
				}
			}
			return false, nil
		case *Dict:
			if !hashable(l) {
				return false, nil
			}
			_, ok := c.Get(l)
			return ok, nil
		case string:
			ls, ok := l.(string)
			if !ok {
				return nil, fmt.Errorf("pylite: 'in <string>' requires string operand")
			}
			return strings.Contains(c, ls), nil
		}
		return nil, fmt.Errorf("pylite: argument of type %s is not iterable", typeName(r))
	}
	// List concatenation/repetition.
	if ll, ok := l.(*List); ok {
		switch op {
		case opAdd:
			if rl, ok := r.(*List); ok {
				return &List{Items: append(append([]Value(nil), ll.Items...), rl.Items...)}, nil
			}
		case opMul:
			if n, ok := r.(int64); ok {
				out := &List{}
				for i := int64(0); i < n; i++ {
					out.Items = append(out.Items, ll.Items...)
				}
				return out, nil
			}
		}
	}
	switch op {
	case opEq:
		return equal(l, r), nil
	case opNe:
		return !equal(l, r), nil
	}
	return nil, fmt.Errorf("pylite: unsupported operand types for %s: %s and %s", opText[op], typeName(l), typeName(r))
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpResult(op opcode, c int) bool {
	switch op {
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	case opGe:
		return c >= 0
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	}
	return false
}

// equal is Python's == on boxed values.
func equal(l, r Value) bool {
	if lv, rv := unbox(l), unbox(r); lv.num() && rv.num() {
		return numEqual(lv, rv)
	}
	if ll, ok := l.(*List); ok {
		rl, ok := r.(*List)
		return ok && listEqual(ll, rl)
	}
	return l == r
}

func listEqual(a, b *List) bool {
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if !equal(a.Items[i], b.Items[i]) {
			return false
		}
	}
	return true
}
