package jlite

// The builtin set: the numeric core a Julia-flavoured analysis fragment
// leans on. Vector builtins run vecview's typed loops over columns, blob
// views and ranges (no boxing of element data); scalar math follows
// Julia's Int64/Float64 promotion.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/vecview"
)

var jBuiltins map[string]Builtin

func init() {
	jBuiltins = map[string]Builtin{
		"length":  bLength,
		"sum":     bSum,
		"println": bPrintln,
		"print":   bPrint,
		"string":  bString,
		"zeros":   bZeros,
		"ones":    bOnes,
		"collect": bCollect,
		"push!":   bPush,
		"abs":     bAbs,
		"min":     bMin,
		"max":     bMax,
		"div":     bDiv,
		"Float64": bFloat64,
		"Int":     bInt,
		"Int64":   bInt,
		"typeof":  bTypeof,
		"sqrt":    mathUnary("sqrt", math.Sqrt),
		"exp":     mathUnary("exp", math.Exp),
		"log":     mathUnary("log", math.Log),
		"sin":     mathUnary("sin", math.Sin),
		"cos":     mathUnary("cos", math.Cos),
		"floor":   mathUnary("floor", math.Floor),
		"ceil":    mathUnary("ceil", math.Ceil),
	}
}

func mathUnary(name string, f func(float64) float64) Builtin {
	return func(in *Interp, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("jlite: %s takes 1 argument", name)
		}
		if isVector(args[0]) {
			if o, ok := operand(args[0]); ok {
				return column(vecview.Map(vecProfile, o, vecLen(args[0]), f)), nil
			}
			items, _ := elemsOf(args[0])
			out := make([]Value, len(items))
			for i, it := range items {
				x, err := toFloat(it)
				if err != nil {
					return nil, err
				}
				out[i] = f(x)
			}
			return newArr(out), nil
		}
		x, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		return f(x), nil
	}
}

func bLength(in *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: length takes 1 argument")
	}
	switch x := args[0].(type) {
	case *Vec:
		return int64(x.Len()), nil
	case *Arr:
		return int64(x.Len()), nil
	case *Range:
		return int64(x.Len()), nil
	case string:
		return int64(len(x)), nil
	}
	return nil, fmt.Errorf("jlite: length of %s", typeName(args[0]))
}

func bSum(in *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: sum takes 1 argument")
	}
	switch x := args[0].(type) {
	case *Vec:
		return x.Sum(), nil
	case *Range:
		// Sum of lo..hi without materialising: n*(lo+hi)/2.
		if x.Hi < x.Lo {
			return int64(0), nil
		}
		n := x.Hi - x.Lo + 1
		return n * (x.Lo + x.Hi) / 2, nil
	case *Arr:
		if x.col != nil {
			return x.col.Sum(), nil
		}
		var si int64
		sf, allInt := 0.0, true
		for _, it := range x.elems {
			switch n := it.(type) {
			case int64:
				si += n
				sf += float64(n)
			case bool:
				si += boolToInt(n)
				sf += float64(boolToInt(n))
			case float64:
				allInt = false
				sf += n
			default:
				return nil, fmt.Errorf("jlite: sum of non-numeric %s", typeName(it))
			}
		}
		if allInt {
			return si, nil
		}
		return sf, nil
	case int64, float64:
		return x, nil
	}
	return nil, fmt.Errorf("jlite: sum of %s", typeName(args[0]))
}

func bPrintln(in *Interp, args []Value) (Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = Str(a)
	}
	fmt.Fprintln(in.Out, strings.Join(parts, ""))
	return nil, nil
}

func bPrint(in *Interp, args []Value) (Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = Str(a)
	}
	fmt.Fprint(in.Out, strings.Join(parts, ""))
	return nil, nil
}

func bString(in *Interp, args []Value) (Value, error) {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(Str(a))
	}
	return b.String(), nil
}

func bZeros(in *Interp, args []Value) (Value, error) {
	return filled(args, "zeros", 0.0)
}

func bOnes(in *Interp, args []Value) (Value, error) {
	return filled(args, "ones", 1.0)
}

func filled(args []Value, name string, v float64) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: %s takes 1 argument", name)
	}
	n, ok := args[0].(int64)
	if !ok || n < 0 {
		return nil, fmt.Errorf("jlite: %s needs a non-negative integer length", name)
	}
	return column(vecview.Collect(vecProfile, vecview.Float(v), int(n))), nil
}

func bCollect(in *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: collect takes 1 argument")
	}
	n := vecLen(args[0])
	if n < 0 {
		return nil, fmt.Errorf("jlite: collect of %s", typeName(args[0]))
	}
	if o, ok := operand(args[0]); ok {
		return column(vecview.Collect(vecProfile, o, n)), nil
	}
	return &Arr{elems: append([]Value(nil), args[0].(*Arr).elems...)}, nil
}

func bPush(in *Interp, args []Value) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("jlite: push! takes 2 arguments")
	}
	a, ok := args[0].(*Arr)
	if !ok {
		// Vec views are fixed-size windows over blob bytes; growing one
		// would detach it from its backing storage.
		return nil, fmt.Errorf("jlite: push! needs a growable vector, got %s", typeName(args[0]))
	}
	if !isNumeric(args[1]) {
		return nil, fmt.Errorf("jlite: cannot push %s onto a numeric vector", typeName(args[1]))
	}
	a.push(args[1])
	return a, nil
}

func bAbs(in *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: abs takes 1 argument")
	}
	switch n := args[0].(type) {
	case int64:
		if n < 0 {
			return -n, nil
		}
		return n, nil
	case float64:
		return math.Abs(n), nil
	}
	return nil, fmt.Errorf("jlite: abs of %s", typeName(args[0]))
}

func bMin(in *Interp, args []Value) (Value, error) { return fold("min", args, -1) }
func bMax(in *Interp, args []Value) (Value, error) { return fold("max", args, 1) }

func fold(name string, args []Value, keep int) (Value, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("jlite: %s takes at least 2 arguments", name)
	}
	best := args[0]
	for _, a := range args[1:] {
		c, err := scalarBinop(">", a, best)
		if err != nil {
			return nil, err
		}
		if (c == true) == (keep > 0) {
			best = a
		}
	}
	return best, nil
}

func bDiv(in *Interp, args []Value) (Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("jlite: div takes 2 arguments")
	}
	a, okA := args[0].(int64)
	b, okB := args[1].(int64)
	if !okA || !okB {
		return nil, fmt.Errorf("jlite: div needs integers")
	}
	if b == 0 {
		return nil, fmt.Errorf("jlite: DivideError: integer division by zero")
	}
	return a / b, nil // truncated, as Julia's div
}

func bFloat64(in *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: Float64 takes 1 argument")
	}
	return toFloat(args[0])
}

func bInt(in *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: Int takes 1 argument")
	}
	switch n := args[0].(type) {
	case int64:
		return n, nil
	case bool:
		return boolToInt(n), nil
	case float64:
		if float64(int64(n)) != n {
			return nil, fmt.Errorf("jlite: InexactError: Int(%v)", n)
		}
		return int64(n), nil
	}
	return nil, fmt.Errorf("jlite: Int of %s", typeName(args[0]))
}

func bTypeof(in *Interp, args []Value) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("jlite: typeof takes 1 argument")
	}
	return typeName(args[0]), nil
}
