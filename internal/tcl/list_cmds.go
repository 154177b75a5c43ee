package tcl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// registerListCmds installs list and dict commands.
func registerListCmds(in *Interp) {
	in.RegisterCommand("list", cmdList)
	in.RegisterCommand("lindex", cmdLindex)
	in.RegisterCommand("llength", cmdLlength)
	in.RegisterCommand("lappend", cmdLappend)
	in.RegisterCommand("lrange", cmdLrange)
	in.RegisterCommand("linsert", cmdLinsert)
	in.RegisterCommand("lreverse", cmdLreverse)
	in.RegisterCommand("lsearch", cmdLsearch)
	in.RegisterCommand("lsort", cmdLsort)
	in.RegisterCommand("lset", cmdLset)
	in.RegisterCommand("lrepeat", cmdLrepeat)
	in.RegisterCommand("lassign", cmdLassign)
	in.RegisterCommand("lmap", cmdLmap)
	in.RegisterCommand("concat", cmdConcat)
	in.RegisterCommand("split", cmdSplit)
	in.RegisterCommand("join", cmdJoin)
	in.RegisterCommand("dict", cmdDict)
}

func cmdList(in *Interp, args []string) (string, error) {
	return FormatList(args[1:]), nil
}

// listIndex resolves "end", "end-N", or integer indices.
func listIndex(spec string, length int) (int, error) {
	spec = strings.TrimSpace(spec)
	if spec == "end" {
		return length - 1, nil
	}
	if strings.HasPrefix(spec, "end-") {
		n, err := strconv.Atoi(spec[4:])
		if err != nil {
			return 0, fmt.Errorf("tcl: bad index %q", spec)
		}
		return length - 1 - n, nil
	}
	if strings.HasPrefix(spec, "end+") {
		n, err := strconv.Atoi(spec[4:])
		if err != nil {
			return 0, fmt.Errorf("tcl: bad index %q", spec)
		}
		return length - 1 + n, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil {
		return 0, fmt.Errorf("tcl: bad index %q", spec)
	}
	return n, nil
}

func cmdLindex(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("lindex", "list ?index ...?")
	}
	cur := args[1]
	for _, spec := range args[2:] {
		elems, err := ParseList(cur)
		if err != nil {
			return "", err
		}
		idx, err := listIndex(spec, len(elems))
		if err != nil {
			return "", err
		}
		if idx < 0 || idx >= len(elems) {
			return "", nil
		}
		cur = elems[idx]
	}
	return cur, nil
}

func cmdLlength(in *Interp, args []string) (string, error) {
	if len(args) != 2 {
		return "", arityErr("llength", "list")
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	return strconv.Itoa(len(elems)), nil
}

func cmdLappend(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("lappend", "varName ?value ...?")
	}
	return in.appendVar(args[1], func(b *strings.Builder) {
		for _, v := range args[2:] {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(ListElement(v))
		}
	})
}

func cmdLrange(in *Interp, args []string) (string, error) {
	if len(args) != 4 {
		return "", arityErr("lrange", "list first last")
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	first, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[3], len(elems))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(elems) {
		last = len(elems) - 1
	}
	if first > last {
		return "", nil
	}
	return FormatList(elems[first : last+1]), nil
}

func cmdLinsert(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", arityErr("linsert", "list index ?element ...?")
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	idx, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	if args[2] == "end" {
		idx = len(elems)
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(elems) {
		idx = len(elems)
	}
	out := make([]string, 0, len(elems)+len(args)-3)
	out = append(out, elems[:idx]...)
	out = append(out, args[3:]...)
	out = append(out, elems[idx:]...)
	return FormatList(out), nil
}

func cmdLreverse(in *Interp, args []string) (string, error) {
	if len(args) != 2 {
		return "", arityErr("lreverse", "list")
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
		elems[i], elems[j] = elems[j], elems[i]
	}
	return FormatList(elems), nil
}

func cmdLsearch(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", arityErr("lsearch", "?options? list pattern")
	}
	mode := "glob"
	i := 1
	for i < len(args)-2 && strings.HasPrefix(args[i], "-") {
		switch args[i] {
		case "-exact":
			mode = "exact"
		case "-glob":
			mode = "glob"
		case "-all":
			mode = "all-" + strings.TrimPrefix(mode, "all-")
		default:
			return "", fmt.Errorf("tcl: lsearch: bad option %q", args[i])
		}
		i++
	}
	elems, err := ParseList(args[i])
	if err != nil {
		return "", err
	}
	pattern := args[i+1]
	all := strings.HasPrefix(mode, "all-")
	exact := strings.HasSuffix(mode, "exact")
	var hits []string
	for idx, e := range elems {
		var match bool
		if exact {
			match = e == pattern
		} else {
			match = globMatch(pattern, e)
		}
		if match {
			if !all {
				return strconv.Itoa(idx), nil
			}
			hits = append(hits, strconv.Itoa(idx))
		}
	}
	if all {
		return FormatList(hits), nil
	}
	return "-1", nil
}

func cmdLsort(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("lsort", "?options? list")
	}
	mode := "ascii"
	decreasing := false
	unique := false
	i := 1
	for i < len(args)-1 {
		switch args[i] {
		case "-integer":
			mode = "integer"
		case "-real":
			mode = "real"
		case "-ascii", "-dictionary":
			mode = "ascii"
		case "-decreasing":
			decreasing = true
		case "-increasing":
			decreasing = false
		case "-unique":
			unique = true
		default:
			return "", fmt.Errorf("tcl: lsort: bad option %q", args[i])
		}
		i++
	}
	elems, err := ParseList(args[i])
	if err != nil {
		return "", err
	}
	var sortErr error
	less := func(a, b string) bool {
		switch mode {
		case "integer":
			x, err1 := strconv.ParseInt(strings.TrimSpace(a), 0, 64)
			y, err2 := strconv.ParseInt(strings.TrimSpace(b), 0, 64)
			if err1 != nil || err2 != nil {
				sortErr = fmt.Errorf("tcl: lsort -integer: non-integer element")
				return false
			}
			return x < y
		case "real":
			x, err1 := strconv.ParseFloat(strings.TrimSpace(a), 64)
			y, err2 := strconv.ParseFloat(strings.TrimSpace(b), 64)
			if err1 != nil || err2 != nil {
				sortErr = fmt.Errorf("tcl: lsort -real: non-numeric element")
				return false
			}
			return x < y
		default:
			return a < b
		}
	}
	sort.SliceStable(elems, func(x, y int) bool {
		if decreasing {
			return less(elems[y], elems[x])
		}
		return less(elems[x], elems[y])
	})
	if sortErr != nil {
		return "", sortErr
	}
	if unique {
		out := elems[:0]
		for j, e := range elems {
			if j == 0 || e != elems[j-1] {
				out = append(out, e)
			}
		}
		elems = out
	}
	return FormatList(elems), nil
}

func cmdLset(in *Interp, args []string) (string, error) {
	if len(args) != 4 {
		return "", arityErr("lset", "varName index value")
	}
	cur, err := in.GetVar(args[1])
	if err != nil {
		return "", err
	}
	elems, err := ParseList(cur)
	if err != nil {
		return "", err
	}
	idx, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	if idx < 0 || idx >= len(elems) {
		return "", fmt.Errorf("tcl: lset: index %q out of range", args[2])
	}
	elems[idx] = args[3]
	res := FormatList(elems)
	if err := in.SetVar(args[1], res); err != nil {
		return "", err
	}
	return res, nil
}

func cmdLrepeat(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", arityErr("lrepeat", "count ?value ...?")
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 0 {
		return "", fmt.Errorf("tcl: lrepeat: bad count %q", args[1])
	}
	out := make([]string, 0, n*(len(args)-2))
	for i := 0; i < n; i++ {
		out = append(out, args[2:]...)
	}
	return FormatList(out), nil
}

func cmdLassign(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", arityErr("lassign", "list varName ?varName ...?")
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	for i, name := range args[2:] {
		val := ""
		if i < len(elems) {
			val = elems[i]
		}
		if err := in.SetVar(name, val); err != nil {
			return "", err
		}
	}
	if len(elems) > len(args)-2 {
		return FormatList(elems[len(args)-2:]), nil
	}
	return "", nil
}

func cmdLmap(in *Interp, args []string) (string, error) {
	if len(args) != 4 {
		return "", arityErr("lmap", "varList list body")
	}
	vars, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	items, err := ParseList(args[2])
	if err != nil {
		return "", err
	}
	if len(vars) == 0 {
		return "", fmt.Errorf("tcl: lmap: empty variable list")
	}
	var out []string
	body := &loopBody{src: args[3]}
	for i := 0; i < len(items); i += len(vars) {
		for vi, v := range vars {
			val := ""
			if i+vi < len(items) {
				val = items[i+vi]
			}
			if err := in.SetVar(v, val); err != nil {
				return "", err
			}
		}
		res, err := body.run(in)
		if err == errBreak {
			break
		}
		if err == errContinue {
			continue
		}
		if err != nil {
			return "", err
		}
		out = append(out, res)
	}
	return FormatList(out), nil
}

func cmdConcat(in *Interp, args []string) (string, error) {
	var parts []string
	for _, a := range args[1:] {
		t := strings.TrimSpace(a)
		if t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " "), nil
}

func cmdSplit(in *Interp, args []string) (string, error) {
	if len(args) != 2 && len(args) != 3 {
		return "", arityErr("split", "string ?splitChars?")
	}
	s := args[1]
	chars := " \t\n\r"
	if len(args) == 3 {
		chars = args[2]
	}
	if chars == "" {
		out := make([]string, 0, len(s))
		for _, r := range s {
			out = append(out, string(r))
		}
		return FormatList(out), nil
	}
	out := strings.FieldsFunc(s, func(r rune) bool {
		return strings.ContainsRune(chars, r)
	})
	// Tcl keeps empty fields; FieldsFunc drops them, so do it manually.
	out = out[:0]
	cur := strings.Builder{}
	for _, r := range s {
		if strings.ContainsRune(chars, r) {
			out = append(out, cur.String())
			cur.Reset()
		} else {
			cur.WriteRune(r)
		}
	}
	out = append(out, cur.String())
	return FormatList(out), nil
}

func cmdJoin(in *Interp, args []string) (string, error) {
	if len(args) != 2 && len(args) != 3 {
		return "", arityErr("join", "list ?joinString?")
	}
	sep := " "
	if len(args) == 3 {
		sep = args[2]
	}
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	return strings.Join(elems, sep), nil
}

// ---- dict ----

// Dicts are stored as even-length lists; lookups scan for the key, keeping
// last-write-wins semantics on update.

func dictGet(d, key string) (string, bool, error) {
	elems, err := ParseList(d)
	if err != nil {
		return "", false, err
	}
	if len(elems)%2 != 0 {
		return "", false, fmt.Errorf("tcl: missing value to go with key")
	}
	for i := len(elems) - 2; i >= 0; i -= 2 {
		if elems[i] == key {
			return elems[i+1], true, nil
		}
	}
	return "", false, nil
}

func dictSet(d, key, value string) (string, error) {
	elems, err := ParseList(d)
	if err != nil {
		return "", err
	}
	if len(elems)%2 != 0 {
		return "", fmt.Errorf("tcl: missing value to go with key")
	}
	for i := 0; i < len(elems); i += 2 {
		if elems[i] == key {
			elems[i+1] = value
			return FormatList(elems), nil
		}
	}
	elems = append(elems, key, value)
	return FormatList(elems), nil
}

func cmdDict(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("dict", "subcommand ?arg ...?")
	}
	switch args[1] {
	case "create":
		if (len(args)-2)%2 != 0 {
			return "", fmt.Errorf("tcl: dict create: odd number of arguments")
		}
		d := ""
		var err error
		for i := 2; i < len(args); i += 2 {
			d, err = dictSet(d, args[i], args[i+1])
			if err != nil {
				return "", err
			}
		}
		return d, nil
	case "get":
		if len(args) < 3 {
			return "", arityErr("dict get", "dictionary ?key ...?")
		}
		cur := args[2]
		for _, key := range args[3:] {
			v, ok, err := dictGet(cur, key)
			if err != nil {
				return "", err
			}
			if !ok {
				return "", fmt.Errorf("tcl: key %q not known in dictionary", key)
			}
			cur = v
		}
		return cur, nil
	case "exists":
		if len(args) != 4 {
			return "", arityErr("dict exists", "dictionary key")
		}
		_, ok, err := dictGet(args[2], args[3])
		if err != nil {
			return "", err
		}
		if ok {
			return "1", nil
		}
		return "0", nil
	case "set":
		if len(args) != 5 {
			return "", arityErr("dict set", "varName key value")
		}
		cur := ""
		if in.VarExists(args[2]) {
			var err error
			cur, err = in.GetVar(args[2])
			if err != nil {
				return "", err
			}
		}
		res, err := dictSet(cur, args[3], args[4])
		if err != nil {
			return "", err
		}
		if err := in.SetVar(args[2], res); err != nil {
			return "", err
		}
		return res, nil
	case "keys":
		if len(args) != 3 {
			return "", arityErr("dict keys", "dictionary")
		}
		elems, err := ParseList(args[2])
		if err != nil {
			return "", err
		}
		var keys []string
		seen := map[string]bool{}
		for i := 0; i+1 < len(elems); i += 2 {
			if !seen[elems[i]] {
				seen[elems[i]] = true
				keys = append(keys, elems[i])
			}
		}
		return FormatList(keys), nil
	case "values":
		if len(args) != 3 {
			return "", arityErr("dict values", "dictionary")
		}
		elems, err := ParseList(args[2])
		if err != nil {
			return "", err
		}
		var vals []string
		for i := 1; i < len(elems); i += 2 {
			vals = append(vals, elems[i])
		}
		return FormatList(vals), nil
	case "size":
		if len(args) != 3 {
			return "", arityErr("dict size", "dictionary")
		}
		elems, err := ParseList(args[2])
		if err != nil {
			return "", err
		}
		return strconv.Itoa(len(elems) / 2), nil
	case "for":
		if len(args) != 5 {
			return "", arityErr("dict for", "{keyVar valueVar} dictionary body")
		}
		kv, err := ParseList(args[2])
		if err != nil || len(kv) != 2 {
			return "", fmt.Errorf("tcl: dict for: must have exactly two variable names")
		}
		elems, err := ParseList(args[3])
		if err != nil {
			return "", err
		}
		body := &loopBody{src: args[4]}
		for i := 0; i+1 < len(elems); i += 2 {
			in.SetVar(kv[0], elems[i])
			in.SetVar(kv[1], elems[i+1])
			_, err := body.run(in)
			if err == errBreak {
				break
			}
			if err != nil && err != errContinue {
				return "", err
			}
		}
		return "", nil
	}
	return "", fmt.Errorf("tcl: dict: unsupported subcommand %q", args[1])
}
