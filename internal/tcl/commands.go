package tcl

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

func arityErr(name, usage string) error {
	return fmt.Errorf(`tcl: wrong # args: should be "%s %s"`, name, usage)
}

// registerCore installs the language-core command set.
func registerCore(in *Interp) {
	in.RegisterCommand("set", cmdSet)
	in.RegisterCommand("unset", cmdUnset)
	in.RegisterCommand("incr", cmdIncr)
	in.RegisterCommand("append", cmdAppend)
	in.RegisterCommand("proc", cmdProc)
	in.RegisterCommand("return", cmdReturn)
	in.RegisterCommand("error", cmdError)
	in.RegisterCommand("catch", cmdCatch)
	in.RegisterCommand("if", cmdIf)
	in.RegisterCommand("while", cmdWhile)
	in.RegisterCommand("for", cmdFor)
	in.RegisterCommand("foreach", cmdForeach)
	in.RegisterCommand("break", func(in *Interp, args []string) (string, error) { return "", errBreak })
	in.RegisterCommand("continue", func(in *Interp, args []string) (string, error) { return "", errContinue })
	in.RegisterCommand("switch", cmdSwitch)
	in.RegisterCommand("expr", cmdExpr)
	in.RegisterCommand("eval", cmdEval)
	in.RegisterCommand("uplevel", cmdUplevel)
	in.RegisterCommand("upvar", cmdUpvar)
	in.RegisterCommand("global", cmdGlobal)
	in.RegisterCommand("variable", cmdVariable)
	in.RegisterCommand("namespace", cmdNamespace)
	in.RegisterCommand("puts", cmdPuts)
	in.RegisterCommand("subst", cmdSubst)
	in.RegisterCommand("format", cmdFormat)
	in.RegisterCommand("source", cmdSource)
	in.RegisterCommand("package", cmdPackage)
	in.RegisterCommand("info", cmdInfo)
	in.RegisterCommand("rename", cmdRename)
	in.RegisterCommand("array", cmdArray)
	in.RegisterCommand("clock", cmdClock)
	in.RegisterCommand("apply", cmdApply)
}

func cmdSet(in *Interp, args []string) (string, error) {
	switch len(args) {
	case 2:
		return in.GetVar(args[1])
	case 3:
		if err := in.SetVar(args[1], args[2]); err != nil {
			return "", err
		}
		return args[2], nil
	}
	return "", arityErr("set", "varName ?newValue?")
}

func cmdUnset(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("unset", "?-nocomplain? varName ?varName ...?")
	}
	nocomplain := false
	names := args[1:]
	if names[0] == "-nocomplain" {
		nocomplain = true
		names = names[1:]
	}
	for _, n := range names {
		if err := in.UnsetVar(n); err != nil && !nocomplain {
			return "", err
		}
	}
	return "", nil
}

func cmdIncr(in *Interp, args []string) (string, error) {
	if len(args) != 2 && len(args) != 3 {
		return "", arityErr("incr", "varName ?increment?")
	}
	delta := int64(1)
	if len(args) == 3 {
		var err error
		delta, err = strconv.ParseInt(args[2], 0, 64)
		if err != nil {
			return "", fmt.Errorf("tcl: incr: bad increment %q", args[2])
		}
	}
	cur := int64(0)
	if in.VarExists(args[1]) {
		s, err := in.GetVar(args[1])
		if err != nil {
			return "", err
		}
		cur, err = strconv.ParseInt(strings.TrimSpace(s), 0, 64)
		if err != nil {
			return "", fmt.Errorf("tcl: incr: variable %q holds non-integer %q", args[1], s)
		}
	}
	cur += delta
	res := strconv.FormatInt(cur, 10)
	if err := in.SetVar(args[1], res); err != nil {
		return "", err
	}
	return res, nil
}

func cmdAppend(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("append", "varName ?value value ...?")
	}
	return in.appendVar(args[1], func(b *strings.Builder) {
		for _, v := range args[2:] {
			b.WriteString(v)
		}
	})
}

func cmdProc(in *Interp, args []string) (string, error) {
	if len(args) != 4 {
		return "", arityErr("proc", "name args body")
	}
	def, err := newProcDef("proc", args[2], args[3], in.ns, in.compile)
	if err != nil {
		return "", err
	}
	in.procs[in.qualify(args[1])] = def
	return "", nil
}

func cmdReturn(in *Interp, args []string) (string, error) {
	val := ""
	code := 2
	i := 1
	for i+1 < len(args) && strings.HasPrefix(args[i], "-") {
		switch args[i] {
		case "-code":
			switch args[i+1] {
			case "ok", "0":
				code = 2
			case "error", "1":
				code = 1
			case "return", "2":
				code = 2
			case "break", "3":
				code = 3
			case "continue", "4":
				code = 4
			default:
				return "", fmt.Errorf("tcl: return: bad -code %q", args[i+1])
			}
			i += 2
		default:
			return "", fmt.Errorf("tcl: return: unknown option %q", args[i])
		}
	}
	if i < len(args) {
		val = args[i]
	}
	return "", &returnErr{value: val, code: code}
}

func cmdError(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("error", "message")
	}
	return "", &RaisedError{Msg: args[1]}
}

func cmdCatch(in *Interp, args []string) (string, error) {
	if len(args) < 2 || len(args) > 3 {
		return "", arityErr("catch", "script ?resultVarName?")
	}
	res, err := in.Eval(args[1])
	code := 0
	if err != nil {
		switch e := err.(type) {
		case *returnErr:
			code = 2
			res = e.value
		default:
			if err == errBreak {
				code = 3
			} else if err == errContinue {
				code = 4
			} else {
				code = 1
				res = err.Error()
			}
		}
	}
	if len(args) == 3 {
		if err := in.SetVar(args[2], res); err != nil {
			return "", err
		}
	}
	return strconv.Itoa(code), nil
}

func cmdIf(in *Interp, args []string) (string, error) {
	i := 1
	for {
		if i >= len(args) {
			return "", arityErr("if", "cond body ?elseif cond body ...? ?else body?")
		}
		cond := args[i]
		i++
		if i < len(args) && args[i] == "then" {
			i++
		}
		if i >= len(args) {
			return "", fmt.Errorf("tcl: if: missing body")
		}
		body := args[i]
		i++
		ok, err := in.EvalExprBool(cond)
		if err != nil {
			return "", err
		}
		if ok {
			return in.Eval(body)
		}
		if i >= len(args) {
			return "", nil
		}
		switch args[i] {
		case "elseif":
			i++
			continue
		case "else":
			if i+1 >= len(args) {
				return "", fmt.Errorf("tcl: if: missing else body")
			}
			return in.Eval(args[i+1])
		default:
			// Implicit else body.
			return in.Eval(args[i])
		}
	}
}

// loopBody lazily compiles a loop body: the parse happens at most once
// per loop execution (not per iteration), and not at all when the loop
// runs zero iterations — preserving the pre-cache behavior that a body's
// syntax errors only surface when the body is first evaluated.
type loopBody struct {
	src      string
	compiled *Script
}

func (lb *loopBody) run(in *Interp) (string, error) {
	if lb.compiled == nil {
		s, err := in.compile(lb.src)
		if err != nil {
			return "", err
		}
		lb.compiled = s
	}
	return in.EvalScript(lb.compiled)
}

func cmdWhile(in *Interp, args []string) (string, error) {
	if len(args) != 3 {
		return "", arityErr("while", "test command")
	}
	cond, err := in.compileExpr(args[1])
	if err != nil {
		return "", err
	}
	body := &loopBody{src: args[2]}
	for {
		v, err := cond.eval(in)
		if err != nil {
			return "", err
		}
		ok, err := v.truthy()
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		_, err = body.run(in)
		if err == errBreak {
			return "", nil
		}
		if err == errContinue {
			continue
		}
		if err != nil {
			return "", err
		}
	}
}

func cmdFor(in *Interp, args []string) (string, error) {
	if len(args) != 5 {
		return "", arityErr("for", "start test next command")
	}
	if _, err := in.Eval(args[1]); err != nil {
		return "", err
	}
	cond, err := in.compileExpr(args[2])
	if err != nil {
		return "", err
	}
	next := &loopBody{src: args[3]}
	body := &loopBody{src: args[4]}
	for {
		v, err := cond.eval(in)
		if err != nil {
			return "", err
		}
		ok, err := v.truthy()
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		_, err = body.run(in)
		if err == errBreak {
			return "", nil
		}
		if err != nil && err != errContinue {
			return "", err
		}
		if _, err := next.run(in); err != nil {
			return "", err
		}
	}
}

func cmdForeach(in *Interp, args []string) (string, error) {
	if len(args) < 4 || len(args)%2 != 0 {
		return "", arityErr("foreach", "varList list ?varList list ...? command")
	}
	body := &loopBody{src: args[len(args)-1]}
	type group struct {
		vars  []string
		items []string
	}
	var groups []group
	maxIter := 0
	for i := 1; i < len(args)-1; i += 2 {
		vars, err := ParseList(args[i])
		if err != nil {
			return "", err
		}
		if len(vars) == 0 {
			return "", fmt.Errorf("tcl: foreach: empty variable list")
		}
		items, err := ParseList(args[i+1])
		if err != nil {
			return "", err
		}
		groups = append(groups, group{vars: vars, items: items})
		iters := (len(items) + len(vars) - 1) / len(vars)
		if iters > maxIter {
			maxIter = iters
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		for _, g := range groups {
			for vi, v := range g.vars {
				idx := iter*len(g.vars) + vi
				val := ""
				if idx < len(g.items) {
					val = g.items[idx]
				}
				if err := in.SetVar(v, val); err != nil {
					return "", err
				}
			}
		}
		_, err := body.run(in)
		if err == errBreak {
			return "", nil
		}
		if err != nil && err != errContinue {
			return "", err
		}
	}
	return "", nil
}

func cmdSwitch(in *Interp, args []string) (string, error) {
	i := 1
	mode := "exact"
	for i < len(args) && strings.HasPrefix(args[i], "-") {
		switch args[i] {
		case "-exact":
			mode = "exact"
		case "-glob":
			mode = "glob"
		case "--":
			i++
			goto done
		default:
			return "", fmt.Errorf("tcl: switch: bad option %q", args[i])
		}
		i++
	}
done:
	if i >= len(args) {
		return "", arityErr("switch", "?options? string pattern body ?pattern body ...?")
	}
	subject := args[i]
	i++
	var pairs []string
	if len(args)-i == 1 {
		var err error
		pairs, err = ParseList(args[i])
		if err != nil {
			return "", err
		}
	} else {
		pairs = args[i:]
	}
	if len(pairs)%2 != 0 {
		return "", fmt.Errorf("tcl: switch: extra pattern with no body")
	}
	for j := 0; j < len(pairs); j += 2 {
		pat, body := pairs[j], pairs[j+1]
		matched := pat == "default"
		if !matched {
			if mode == "glob" {
				matched = globMatch(pat, subject)
			} else {
				matched = pat == subject
			}
		}
		if matched {
			// "-" chains to the next body.
			for body == "-" && j+3 < len(pairs) {
				j += 2
				body = pairs[j+1]
			}
			return in.Eval(body)
		}
	}
	return "", nil
}

func cmdExpr(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("expr", "arg ?arg ...?")
	}
	// The common compiled shape `expr {...}` arrives as one word; use it
	// as the cache key directly instead of joining a fresh string.
	if len(args) == 2 {
		return in.EvalExpr(args[1])
	}
	return in.EvalExpr(strings.Join(args[1:], " "))
}

func cmdEval(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("eval", "arg ?arg ...?")
	}
	if len(args) == 2 {
		return in.Eval(args[1])
	}
	return in.Eval(strings.Join(args[1:], " "))
}

func cmdUplevel(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("uplevel", "?level? arg ?arg ...?")
	}
	level := 1
	rest := args[1:]
	if l, ok := parseLevel(args[1]); ok {
		level = l
		rest = args[2:]
		if len(rest) == 0 {
			return "", arityErr("uplevel", "?level? arg ?arg ...?")
		}
	}
	// Compute the target frame index.
	cur := len(in.stack) - 1
	var target int
	if level < 0 { // #N absolute form encoded as -(N+1)
		target = -(level + 1)
	} else {
		target = cur - level
	}
	if target < 0 || target > cur {
		return "", fmt.Errorf("tcl: uplevel: bad level")
	}
	saved := in.stack
	in.stack = in.stack[:target+1]
	defer func() { in.stack = saved }()
	// Single-argument uplevel (the compiled-code shape) evaluates the
	// script directly, so repeated uplevels of one body share a cached
	// parse instead of joining a new string each call.
	if len(rest) == 1 {
		return in.Eval(rest[0])
	}
	return in.Eval(strings.Join(rest, " "))
}

// parseLevel parses "2" or "#0" style level specs. Absolute levels #N are
// encoded as -(N+1).
func parseLevel(s string) (int, bool) {
	if strings.HasPrefix(s, "#") {
		n, err := strconv.Atoi(s[1:])
		if err != nil {
			return 0, false
		}
		return -(n + 1), true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func cmdUpvar(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", arityErr("upvar", "?level? otherVar localVar ?otherVar localVar ...?")
	}
	level := 1
	rest := args[1:]
	if l, ok := parseLevel(args[1]); ok && len(args) >= 4 {
		level = l
		rest = args[2:]
	}
	if len(rest)%2 != 0 {
		return "", arityErr("upvar", "?level? otherVar localVar ?otherVar localVar ...?")
	}
	cur := len(in.stack) - 1
	var target int
	if level < 0 {
		target = -(level + 1)
	} else {
		target = cur - level
	}
	if target < 0 || target > cur {
		return "", fmt.Errorf("tcl: upvar: bad level")
	}
	tf := in.stack[target]
	for i := 0; i < len(rest); i += 2 {
		other, local := rest[i], rest[i+1]
		ov, ok := tf.vars[other]
		if !ok {
			ov = &variable{}
			tf.vars[other] = ov
		}
		in.frame().vars[local] = &variable{link: ov}
	}
	return "", nil
}

func cmdGlobal(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("global", "varName ?varName ...?")
	}
	for _, name := range args[1:] {
		gv, ok := in.global.vars[name]
		if !ok {
			gv = &variable{}
			in.global.vars[name] = gv
		}
		if in.frame() != in.global {
			in.frame().vars[name] = &variable{link: gv}
		}
	}
	return "", nil
}

// cmdVariable declares a namespace variable; namespace variables live in
// the global frame under their qualified name.
func cmdVariable(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("variable", "name ?value ...?")
	}
	for i := 1; i < len(args); i += 2 {
		name := args[i]
		qname := name
		if in.ns != "" && !strings.HasPrefix(name, "::") {
			qname = in.ns + "::" + name
		}
		qname = strings.TrimPrefix(qname, "::")
		gv, ok := in.global.vars[qname]
		if !ok {
			gv = &variable{}
			in.global.vars[qname] = gv
		}
		if i+1 < len(args) {
			t := gv.target()
			t.val, t.app = args[i+1], nil
		}
		if in.frame() != in.global {
			in.frame().vars[name] = &variable{link: gv}
		}
	}
	return "", nil
}

func cmdNamespace(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("namespace", "subcommand ?arg ...?")
	}
	switch args[1] {
	case "eval":
		if len(args) < 4 {
			return "", arityErr("namespace eval", "name script")
		}
		ns := strings.TrimPrefix(args[2], "::")
		saved := in.ns
		if saved != "" && !strings.HasPrefix(args[2], "::") {
			ns = saved + "::" + ns
		}
		in.ns = ns
		defer func() { in.ns = saved }()
		if len(args) == 4 {
			return in.Eval(args[3])
		}
		return in.Eval(strings.Join(args[3:], " "))
	case "current":
		if in.ns == "" {
			return "::", nil
		}
		return "::" + in.ns, nil
	case "exists":
		if len(args) != 3 {
			return "", arityErr("namespace exists", "name")
		}
		prefix := strings.TrimPrefix(args[2], "::") + "::"
		for name := range in.cmds {
			if strings.HasPrefix(name, prefix) {
				return "1", nil
			}
		}
		for name := range in.procs {
			if strings.HasPrefix(name, prefix) {
				return "1", nil
			}
		}
		return "0", nil
	}
	return "", fmt.Errorf("tcl: namespace: unsupported subcommand %q", args[1])
}

func cmdPuts(in *Interp, args []string) (string, error) {
	newline := true
	msg := ""
	switch len(args) {
	case 2:
		msg = args[1]
	case 3:
		if args[1] == "-nonewline" {
			newline = false
			msg = args[2]
		} else if args[1] == "stdout" || args[1] == "stderr" {
			msg = args[2]
		} else {
			return "", fmt.Errorf("tcl: puts: bad channel %q", args[1])
		}
	case 4:
		if args[1] != "-nonewline" {
			return "", arityErr("puts", "?-nonewline? ?channelId? string")
		}
		newline = false
		msg = args[3]
	default:
		return "", arityErr("puts", "?-nonewline? ?channelId? string")
	}
	if newline {
		fmt.Fprintln(in.Out, msg)
	} else {
		fmt.Fprint(in.Out, msg)
	}
	return "", nil
}

func cmdSubst(in *Interp, args []string) (string, error) {
	if len(args) != 2 {
		return "", arityErr("subst", "string")
	}
	return in.substWord(args[1])
}

// cmdFormat implements Tcl's format with the common verbs.
func cmdFormat(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("format", "formatString ?arg ...?")
	}
	return tclFormat(args[1], args[2:])
}

func tclFormat(format string, args []string) (string, error) {
	var b strings.Builder
	ai := 0
	i := 0
	n := len(format)
	for i < n {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= n {
			return "", fmt.Errorf("tcl: format: trailing %%")
		}
		if format[i] == '%' {
			b.WriteByte('%')
			i++
			continue
		}
		start := i
		for i < n && strings.ContainsRune("-+ #0123456789.*", rune(format[i])) {
			i++
		}
		if i >= n {
			return "", fmt.Errorf("tcl: format: bad conversion")
		}
		spec := format[start:i]
		verb := format[i]
		i++
		if strings.Contains(spec, "*") {
			return "", fmt.Errorf("tcl: format: * width not supported")
		}
		if ai >= len(args) && verb != '%' {
			return "", fmt.Errorf("tcl: format: not enough arguments")
		}
		switch verb {
		case 'd', 'i':
			v, err := strconv.ParseInt(strings.TrimSpace(args[ai]), 0, 64)
			if err != nil {
				// Accept floats by truncation, as Tcl coerces.
				f, ferr := strconv.ParseFloat(args[ai], 64)
				if ferr != nil {
					return "", fmt.Errorf("tcl: format: expected integer, got %q", args[ai])
				}
				v = int64(f)
			}
			fmt.Fprintf(&b, "%"+spec+"d", v)
		case 'u':
			v, err := strconv.ParseUint(strings.TrimSpace(args[ai]), 0, 64)
			if err != nil {
				return "", fmt.Errorf("tcl: format: expected unsigned, got %q", args[ai])
			}
			fmt.Fprintf(&b, "%"+spec+"d", v)
		case 'x', 'X', 'o', 'b':
			v, err := strconv.ParseInt(strings.TrimSpace(args[ai]), 0, 64)
			if err != nil {
				return "", fmt.Errorf("tcl: format: expected integer, got %q", args[ai])
			}
			fmt.Fprintf(&b, "%"+spec+string(verb), v)
		case 'c':
			v, err := strconv.ParseInt(strings.TrimSpace(args[ai]), 0, 64)
			if err != nil {
				return "", fmt.Errorf("tcl: format: expected integer, got %q", args[ai])
			}
			b.WriteRune(rune(v))
		case 'f', 'e', 'E', 'g', 'G':
			v, err := strconv.ParseFloat(strings.TrimSpace(args[ai]), 64)
			if err != nil {
				return "", fmt.Errorf("tcl: format: expected float, got %q", args[ai])
			}
			fmt.Fprintf(&b, "%"+spec+string(verb), v)
		case 's':
			fmt.Fprintf(&b, "%"+spec+"s", args[ai])
		default:
			return "", fmt.Errorf("tcl: format: bad conversion %%%c", verb)
		}
		ai++
	}
	return b.String(), nil
}

func cmdSource(in *Interp, args []string) (string, error) {
	if len(args) != 2 {
		return "", arityErr("source", "fileName")
	}
	if in.SourceFS == nil {
		return "", fmt.Errorf("tcl: source: no filesystem attached to interpreter")
	}
	content, err := in.SourceFS(args[1])
	if err != nil {
		return "", fmt.Errorf("tcl: source: %w", err)
	}
	return in.Eval(content)
}

// cmdPackage implements require/provide/ifneeded against the interpreter's
// package path (the TCLLIBPATH mechanism the paper relies on for attaching
// user Tcl code to a Swift/T run).
func cmdPackage(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("package", "subcommand ?arg ...?")
	}
	switch args[1] {
	case "provide":
		if len(args) < 3 {
			return "", arityErr("package provide", "name ?version?")
		}
		version := "1.0"
		if len(args) >= 4 {
			version = args[3]
		}
		in.pkgs[args[2]] = version
		return "", nil
	case "require":
		if len(args) < 3 {
			return "", arityErr("package require", "name ?version?")
		}
		name := args[2]
		if v, ok := in.pkgs[name]; ok {
			return v, nil
		}
		// Search the package path for <name>.tcl (a simplified pkgIndex).
		if in.SourceFS != nil {
			for _, dir := range in.PkgPath {
				path := dir + "/" + name + ".tcl"
				content, err := in.SourceFS(path)
				if err != nil {
					continue
				}
				if _, err := in.Eval(content); err != nil {
					return "", fmt.Errorf("tcl: package require %s: %w", name, err)
				}
				if v, ok := in.pkgs[name]; ok {
					return v, nil
				}
				in.pkgs[name] = "1.0"
				return "1.0", nil
			}
		}
		return "", fmt.Errorf("tcl: can't find package %s", name)
	case "versions":
		if len(args) != 3 {
			return "", arityErr("package versions", "name")
		}
		if v, ok := in.pkgs[args[2]]; ok {
			return v, nil
		}
		return "", nil
	case "names":
		names := make([]string, 0, len(in.pkgs))
		for n := range in.pkgs {
			names = append(names, n)
		}
		return FormatList(names), nil
	}
	return "", fmt.Errorf("tcl: package: unsupported subcommand %q", args[1])
}

func cmdInfo(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("info", "subcommand ?arg ...?")
	}
	switch args[1] {
	case "exists":
		if len(args) != 3 {
			return "", arityErr("info exists", "varName")
		}
		if in.VarExists(args[2]) {
			return "1", nil
		}
		return "0", nil
	case "commands":
		var names []string
		for n := range in.cmds {
			names = append(names, n)
		}
		for n := range in.procs {
			names = append(names, n)
		}
		return FormatList(names), nil
	case "procs":
		var names []string
		for n := range in.procs {
			names = append(names, n)
		}
		return FormatList(names), nil
	case "level":
		return strconv.Itoa(len(in.stack) - 1), nil
	case "body":
		if len(args) != 3 {
			return "", arityErr("info body", "procName")
		}
		p := in.resolveProc(args[2])
		if p == nil {
			return "", fmt.Errorf("tcl: info body: %q isn't a procedure", args[2])
		}
		return p.body, nil
	case "args":
		if len(args) != 3 {
			return "", arityErr("info args", "procName")
		}
		p := in.resolveProc(args[2])
		if p == nil {
			return "", fmt.Errorf("tcl: info args: %q isn't a procedure", args[2])
		}
		names := make([]string, len(p.params))
		for i, prm := range p.params {
			names[i] = prm.name
		}
		return FormatList(names), nil
	}
	return "", fmt.Errorf("tcl: info: unsupported subcommand %q", args[1])
}

func cmdRename(in *Interp, args []string) (string, error) {
	if len(args) != 3 {
		return "", arityErr("rename", "oldName newName")
	}
	old, nw := args[1], args[2]
	if p, ok := in.procs[in.qualify(old)]; ok {
		delete(in.procs, in.qualify(old))
		if nw != "" {
			in.procs[in.qualify(nw)] = p
		}
		return "", nil
	}
	if c, ok := in.cmds[in.qualify(old)]; ok {
		in.UnregisterCommand(in.qualify(old))
		if nw != "" {
			in.RegisterCommand(in.qualify(nw), c)
		}
		return "", nil
	}
	return "", fmt.Errorf("tcl: rename: can't find %q", old)
}

func cmdArray(in *Interp, args []string) (string, error) {
	if len(args) < 3 {
		return "", arityErr("array", "subcommand arrayName ?arg ...?")
	}
	name := args[2]
	f := in.frame()
	v, ok := f.vars[name]
	if ok {
		v = v.target()
	}
	switch args[1] {
	case "exists":
		if ok && v.isArr {
			return "1", nil
		}
		return "0", nil
	case "size":
		if !ok || !v.isArr {
			return "0", nil
		}
		return strconv.Itoa(len(v.arr)), nil
	case "names":
		if !ok || !v.isArr {
			return "", nil
		}
		names := make([]string, 0, len(v.arr))
		for k := range v.arr {
			names = append(names, k)
		}
		return FormatList(names), nil
	case "get":
		if !ok || !v.isArr {
			return "", nil
		}
		var out []string
		for k, val := range v.arr {
			out = append(out, k, val)
		}
		return FormatList(out), nil
	case "set":
		if len(args) != 4 {
			return "", arityErr("array set", "arrayName list")
		}
		elems, err := ParseList(args[3])
		if err != nil {
			return "", err
		}
		if len(elems)%2 != 0 {
			return "", fmt.Errorf("tcl: array set: list must have even number of elements")
		}
		for i := 0; i < len(elems); i += 2 {
			if err := in.SetVar(name+"("+elems[i]+")", elems[i+1]); err != nil {
				return "", err
			}
		}
		return "", nil
	case "unset":
		if ok {
			delete(f.vars, name)
		}
		return "", nil
	}
	return "", fmt.Errorf("tcl: array: unsupported subcommand %q", args[1])
}

func cmdClock(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("clock", "subcommand")
	}
	switch args[1] {
	case "seconds":
		return strconv.FormatInt(time.Now().Unix(), 10), nil
	case "milliseconds":
		return strconv.FormatInt(time.Now().UnixMilli(), 10), nil
	case "microseconds":
		return strconv.FormatInt(time.Now().UnixMicro(), 10), nil
	}
	return "", fmt.Errorf("tcl: clock: unsupported subcommand %q", args[1])
}

func cmdApply(in *Interp, args []string) (string, error) {
	if len(args) < 2 {
		return "", arityErr("apply", "lambdaExpr ?arg ...?")
	}
	lam, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	if len(lam) < 2 || len(lam) > 3 {
		return "", fmt.Errorf("tcl: apply: lambda must be {params body ?ns?}")
	}
	def, err := newProcDef("apply", lam[0], lam[1], in.ns, in.compile)
	if err != nil {
		return "", err
	}
	return in.callProc("apply-lambda", def, args[2:])
}

// globMatch implements Tcl's [string match] glob rules: * ? [chars] \x.
func globMatch(pattern, s string) bool {
	return globMatchAt(pattern, s, 0, 0)
}

func globMatchAt(p, s string, pi, si int) bool {
	for pi < len(p) {
		switch p[pi] {
		case '*':
			for pi < len(p) && p[pi] == '*' {
				pi++
			}
			if pi == len(p) {
				return true
			}
			for k := si; k <= len(s); k++ {
				if globMatchAt(p, s, pi, k) {
					return true
				}
			}
			return false
		case '?':
			if si >= len(s) {
				return false
			}
			pi++
			si++
		case '[':
			if si >= len(s) {
				return false
			}
			end := strings.IndexByte(p[pi:], ']')
			if end < 0 {
				return false
			}
			set := p[pi+1 : pi+end]
			if !charSetMatch(set, s[si]) {
				return false
			}
			pi += end + 1
			si++
		case '\\':
			if pi+1 < len(p) {
				pi++
			}
			fallthrough
		default:
			if si >= len(s) || p[pi] != s[si] {
				return false
			}
			pi++
			si++
		}
	}
	return si == len(s)
}

func charSetMatch(set string, c byte) bool {
	i := 0
	for i < len(set) {
		if i+2 < len(set) && set[i+1] == '-' {
			if c >= set[i] && c <= set[i+2] {
				return true
			}
			i += 3
			continue
		}
		if set[i] == c {
			return true
		}
		i++
	}
	return false
}
