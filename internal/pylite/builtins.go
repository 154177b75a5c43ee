package pylite

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// pyBuiltins is the global builtin function table.
var pyBuiltins map[string]Value

func init() {
	pyBuiltins = map[string]Value{
		"print": Builtin(func(in *Interp, args []Value) (Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = Str(a)
			}
			fmt.Fprintln(in.Out, strings.Join(parts, " "))
			return nil, nil
		}),
		"len": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: len() takes 1 argument")
			}
			switch x := args[0].(type) {
			case string:
				return int64(len(x)), nil
			case *List:
				return int64(len(x.Items)), nil
			case *Vec:
				return int64(x.Len()), nil
			case *Dict:
				return int64(x.Len()), nil
			}
			return nil, fmt.Errorf("pylite: object of type %s has no len()", typeName(args[0]))
		}),
		"range": Builtin(func(in *Interp, args []Value) (Value, error) {
			vs := make([]val, len(args))
			for i, a := range args {
				vs[i] = unbox(a)
			}
			i, step, n, err := rangeOf(vs)
			if err != nil {
				return nil, err
			}
			out := &List{}
			for ; n > 0; n-- {
				out.Items = append(out.Items, i)
				i += step
			}
			return out, nil
		}),
		"sum": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: sum() takes 1 argument")
			}
			if v, ok := args[0].(*Vec); ok {
				// Packed vectors sum straight off the backing bytes —
				// no per-element boxing.
				return v.Sum(), nil
			}
			items, err := iterate(args[0])
			if err != nil {
				return nil, err
			}
			allInt := true
			var si int64
			var sf float64
			for _, it := range items {
				switch n := it.(type) {
				case int64:
					si += n
					sf += float64(n)
				case float64:
					allInt = false
					sf += n
				default:
					return nil, fmt.Errorf("pylite: sum() of non-numeric %s", typeName(it))
				}
			}
			if allInt {
				return si, nil
			}
			return sf, nil
		}),
		"min": Builtin(minMax("min", -1)),
		"max": Builtin(minMax("max", 1)),
		"abs": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: abs() takes 1 argument")
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
			return nil, fmt.Errorf("pylite: bad operand for abs(): %s", typeName(args[0]))
		}),
		"round": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) < 1 || len(args) > 2 {
				return nil, fmt.Errorf("pylite: round() takes 1-2 arguments")
			}
			f, err := toFloat(args[0])
			if err != nil {
				return nil, err
			}
			if len(args) == 2 {
				nd, ok := args[1].(int64)
				if !ok {
					return nil, fmt.Errorf("pylite: round() digits must be int")
				}
				p := math.Pow(10, float64(nd))
				return math.Round(f*p) / p, nil
			}
			return int64(math.Round(f)), nil
		}),
		"str": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: str() takes 1 argument")
			}
			return Str(args[0]), nil
		}),
		"repr": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: repr() takes 1 argument")
			}
			return Repr(args[0]), nil
		}),
		"int": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: int() takes 1 argument")
			}
			switch x := args[0].(type) {
			case int64:
				return x, nil
			case float64:
				return int64(x), nil
			case bool:
				return boolToInt(x), nil
			case string:
				v, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("pylite: invalid literal for int(): %q", x)
				}
				return v, nil
			}
			return nil, fmt.Errorf("pylite: int() argument must be a number or string")
		}),
		"float": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: float() takes 1 argument")
			}
			if s, ok := args[0].(string); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					return nil, fmt.Errorf("pylite: could not convert string to float: %q", s)
				}
				return v, nil
			}
			return toFloat(args[0])
		}),
		"bool": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: bool() takes 1 argument")
			}
			return truthy(args[0]), nil
		}),
		"list": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) == 0 {
				return &List{}, nil
			}
			items, err := iterate(args[0])
			if err != nil {
				return nil, err
			}
			return &List{Items: items}, nil
		}),
		"sorted": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: sorted() takes 1 argument")
			}
			items, err := iterate(args[0])
			if err != nil {
				return nil, err
			}
			out := append([]Value(nil), items...)
			var sortErr error
			sort.SliceStable(out, func(i, j int) bool {
				c, err := binop(opLt, out[i], out[j])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				b, _ := c.(bool)
				return b
			})
			if sortErr != nil {
				return nil, sortErr
			}
			return &List{Items: out}, nil
		}),
		"enumerate": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: enumerate() takes 1 argument")
			}
			items, err := iterate(args[0])
			if err != nil {
				return nil, err
			}
			out := &List{}
			for i, it := range items {
				out.Items = append(out.Items, &List{Items: []Value{int64(i), it}})
			}
			return out, nil
		}),
		"zip": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("pylite: zip() takes at least 2 arguments")
			}
			var seqs [][]Value
			shortest := -1
			for _, a := range args {
				items, err := iterate(a)
				if err != nil {
					return nil, err
				}
				seqs = append(seqs, items)
				if shortest < 0 || len(items) < shortest {
					shortest = len(items)
				}
			}
			out := &List{}
			for i := 0; i < shortest; i++ {
				row := &List{}
				for _, s := range seqs {
					row.Items = append(row.Items, s[i])
				}
				out.Items = append(out.Items, row)
			}
			return out, nil
		}),
		"map": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("pylite: map() takes 2 arguments")
			}
			items, err := iterate(args[1])
			if err != nil {
				return nil, err
			}
			out := &List{}
			for _, it := range items {
				v, err := in.call(args[0], []Value{it})
				if err != nil {
					return nil, err
				}
				out.Items = append(out.Items, v)
			}
			return out, nil
		}),
		"filter": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("pylite: filter() takes 2 arguments")
			}
			items, err := iterate(args[1])
			if err != nil {
				return nil, err
			}
			out := &List{}
			for _, it := range items {
				v, err := in.call(args[0], []Value{it})
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					out.Items = append(out.Items, it)
				}
			}
			return out, nil
		}),
		"type": Builtin(func(in *Interp, args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("pylite: type() takes 1 argument")
			}
			return "<class '" + typeName(args[0]) + "'>", nil
		}),
	}
}

// storeless names the builtins that store nothing into the interpreter's
// state and call no function they are given (map and filter do).
var storeless = map[string]bool{"print": true, "len": true, "range": true, "sum": true,
	"min": true, "max": true, "abs": true, "round": true, "str": true, "repr": true, "int": true,
	"float": true, "bool": true, "list": true, "sorted": true, "enumerate": true, "zip": true, "type": true}

func minMax(name string, sign int) func(*Interp, []Value) (Value, error) {
	return func(in *Interp, args []Value) (Value, error) {
		var items []Value
		if len(args) == 1 {
			var err error
			items, err = iterate(args[0])
			if err != nil {
				return nil, err
			}
		} else {
			items = args
		}
		if len(items) == 0 {
			return nil, fmt.Errorf("pylite: %s() of empty sequence", name)
		}
		op := opLt
		if sign > 0 {
			op = opGt
		}
		best := items[0]
		for _, it := range items[1:] {
			c, err := binop(op, it, best)
			if err != nil {
				return nil, err
			}
			if b, _ := c.(bool); b {
				best = it
			}
		}
		return best, nil
	}
}

// boundMethod returns a builtin closure implementing obj.name(...).
func boundMethod(obj Value, name string) (Value, error) {
	switch o := obj.(type) {
	case *List:
		switch name {
		case "append":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("pylite: append() takes 1 argument")
				}
				o.Items = append(o.Items, args[0])
				return nil, nil
			}), nil
		case "extend":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("pylite: extend() takes 1 argument")
				}
				items, err := iterate(args[0])
				if err != nil {
					return nil, err
				}
				o.Items = append(o.Items, items...)
				return nil, nil
			}), nil
		case "pop":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(o.Items) == 0 {
					return nil, fmt.Errorf("pylite: pop from empty list")
				}
				idx := len(o.Items) - 1
				if len(args) == 1 {
					i, err := listIndex(args[0], len(o.Items))
					if err != nil {
						return nil, err
					}
					idx = i
				}
				v := o.Items[idx]
				o.Items = append(o.Items[:idx], o.Items[idx+1:]...)
				return v, nil
			}), nil
		case "index":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("pylite: index() takes 1 argument")
				}
				for i, it := range o.Items {
					if equal(it, args[0]) {
						return int64(i), nil
					}
				}
				return nil, fmt.Errorf("pylite: %s is not in list", Repr(args[0]))
			}), nil
		case "sort":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				var sortErr error
				sort.SliceStable(o.Items, func(i, j int) bool {
					c, err := binop(opLt, o.Items[i], o.Items[j])
					if err != nil && sortErr == nil {
						sortErr = err
					}
					b, _ := c.(bool)
					return b
				})
				return nil, sortErr
			}), nil
		}
	case *Dict:
		switch name {
		case "keys":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				return &List{Items: o.Keys()}, nil
			}), nil
		case "values":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				out := &List{}
				for _, k := range o.Keys() {
					v, _ := o.Get(k)
					out.Items = append(out.Items, v)
				}
				return out, nil
			}), nil
		case "items":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				out := &List{}
				for _, k := range o.Keys() {
					v, _ := o.Get(k)
					out.Items = append(out.Items, &List{Items: []Value{k, v}})
				}
				return out, nil
			}), nil
		case "get":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) < 1 || len(args) > 2 {
					return nil, fmt.Errorf("pylite: get() takes 1-2 arguments")
				}
				if v, ok := o.Get(args[0]); ok {
					return v, nil
				}
				if len(args) == 2 {
					return args[1], nil
				}
				return nil, nil
			}), nil
		}
	case string:
		switch name {
		case "upper":
			return strMethod(func() Value { return strings.ToUpper(o) }), nil
		case "lower":
			return strMethod(func() Value { return strings.ToLower(o) }), nil
		case "strip":
			return strMethod(func() Value { return strings.TrimSpace(o) }), nil
		case "split":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				sep := ""
				if len(args) == 1 {
					s, ok := args[0].(string)
					if !ok {
						return nil, fmt.Errorf("pylite: split() separator must be a string")
					}
					sep = s
				}
				var parts []string
				if sep == "" {
					parts = strings.Fields(o)
				} else {
					parts = strings.Split(o, sep)
				}
				out := &List{}
				for _, p := range parts {
					out.Items = append(out.Items, p)
				}
				return out, nil
			}), nil
		case "join":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("pylite: join() takes 1 argument")
				}
				items, err := iterate(args[0])
				if err != nil {
					return nil, err
				}
				parts := make([]string, len(items))
				for i, it := range items {
					s, ok := it.(string)
					if !ok {
						return nil, fmt.Errorf("pylite: join() needs strings, got %s", typeName(it))
					}
					parts[i] = s
				}
				return strings.Join(parts, o), nil
			}), nil
		case "startswith":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("pylite: startswith() takes 1 argument")
				}
				p, ok := args[0].(string)
				if !ok {
					return nil, fmt.Errorf("pylite: startswith() needs a string")
				}
				return strings.HasPrefix(o, p), nil
			}), nil
		case "endswith":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("pylite: endswith() takes 1 argument")
				}
				p, ok := args[0].(string)
				if !ok {
					return nil, fmt.Errorf("pylite: endswith() needs a string")
				}
				return strings.HasSuffix(o, p), nil
			}), nil
		case "replace":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 2 {
					return nil, fmt.Errorf("pylite: replace() takes 2 arguments")
				}
				a, ok1 := args[0].(string)
				b, ok2 := args[1].(string)
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("pylite: replace() needs strings")
				}
				return strings.ReplaceAll(o, a, b), nil
			}), nil
		case "format":
			return Builtin(func(in *Interp, args []Value) (Value, error) {
				out := o
				for _, a := range args {
					out = strings.Replace(out, "{}", Str(a), 1)
				}
				return out, nil
			}), nil
		}
	}
	return nil, fmt.Errorf("pylite: %s object has no attribute %q", typeName(obj), name)
}

func strMethod(f func() Value) Builtin {
	return func(in *Interp, args []Value) (Value, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("pylite: method takes no arguments")
		}
		return f(), nil
	}
}
