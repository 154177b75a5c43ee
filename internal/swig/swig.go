// Package swig reproduces the binding pipeline of the paper's Fig. 3: a
// C header is parsed and, for each exported function, a Tcl command is
// generated that converts Tcl string arguments to native types, invokes
// the library symbol, and converts the result back. In real Swift/T this
// is the SWIG tool emitting wrap.c; here Bind registers equivalent Go
// closures directly on the interpreter (the same thing a compiled wrap.c
// does after load), and GenerateWrapper renders the wrapper source for
// inspection, packaging, and tests.
//
// Pointer-typed parameters (double*, int*, char*) carry bulk data and map
// to the Swift/T blob type via the blobutils conversions, exactly as
// §III-B prescribes.
package swig

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/blob"
	"repro/internal/lang"
	"repro/internal/nativelib"
	"repro/internal/tcl"
)

// CType enumerates the C parameter/return types supported by the binding
// generator (the paper: "Simple types (numbers, strings) must be used",
// plus blobs for bulk data).
type CType int

// Supported C types.
const (
	CVoid CType = iota
	CInt
	CDouble
	CString    // char*
	CDoublePtr // double* -> blob of float64
	CIntPtr    // int* -> blob of int32
)

func (t CType) String() string {
	switch t {
	case CVoid:
		return "void"
	case CInt:
		return "int"
	case CDouble:
		return "double"
	case CString:
		return "char*"
	case CDoublePtr:
		return "double*"
	case CIntPtr:
		return "int*"
	}
	return "?"
}

// Param is one declared parameter.
type Param struct {
	Type CType
	Name string
}

// FuncDecl is one parsed C function declaration.
type FuncDecl struct {
	Ret    CType
	Name   string
	Params []Param
}

// Signature renders the declaration back as C.
func (f *FuncDecl) Signature() string {
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = p.Type.String() + " " + p.Name
	}
	return fmt.Sprintf("%s %s(%s);", f.Ret, f.Name, strings.Join(parts, ", "))
}

// ParseHeader extracts function declarations from C header text. It
// understands the subset SWIG users write for Swift/T integration:
// one declaration per line, simple types, pointer bulk parameters,
// comments elided.
func ParseHeader(header string) ([]*FuncDecl, error) {
	var decls []*FuncDecl
	src := stripComments(header)
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, ";") {
			return nil, fmt.Errorf("swig: declaration must end with ';': %q", line)
		}
		line = strings.TrimSuffix(line, ";")
		open := strings.IndexByte(line, '(')
		closePos := strings.LastIndexByte(line, ')')
		if open < 0 || closePos < open {
			return nil, fmt.Errorf("swig: malformed declaration %q", line)
		}
		retAndName := strings.TrimSpace(line[:open])
		fields := strings.Fields(retAndName)
		if len(fields) < 2 {
			return nil, fmt.Errorf("swig: missing return type or name in %q", line)
		}
		name := fields[len(fields)-1]
		retType, err := parseCType(strings.Join(fields[:len(fields)-1], " "), name)
		if err != nil {
			return nil, err
		}
		// A '*' glued to the name belongs to the type: "char* f" vs "char *f".
		if strings.HasPrefix(name, "*") {
			name = strings.TrimPrefix(name, "*")
			retType, err = parseCType(strings.Join(fields[:len(fields)-1], " ")+"*", name)
			if err != nil {
				return nil, err
			}
		}
		d := &FuncDecl{Ret: retType, Name: name}
		argsText := strings.TrimSpace(line[open+1 : closePos])
		if argsText != "" && argsText != "void" {
			for _, a := range strings.Split(argsText, ",") {
				a = strings.TrimSpace(a)
				fields := strings.Fields(a)
				if len(fields) < 2 {
					return nil, fmt.Errorf("swig: malformed parameter %q in %s", a, name)
				}
				pname := fields[len(fields)-1]
				ptype := strings.Join(fields[:len(fields)-1], " ")
				if strings.HasPrefix(pname, "*") {
					ptype += "*"
					pname = strings.TrimPrefix(pname, "*")
				}
				ct, err := parseCType(ptype, pname)
				if err != nil {
					return nil, err
				}
				d.Params = append(d.Params, Param{Type: ct, Name: pname})
			}
		}
		decls = append(decls, d)
	}
	return decls, nil
}

func stripComments(src string) string {
	var b strings.Builder
	i := 0
	for i < len(src) {
		if strings.HasPrefix(src[i:], "/*") {
			end := strings.Index(src[i:], "*/")
			if end < 0 {
				break
			}
			i += end + 2
			continue
		}
		if strings.HasPrefix(src[i:], "//") {
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		}
		b.WriteByte(src[i])
		i++
	}
	return b.String()
}

func parseCType(s, context string) (CType, error) {
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, " *", "*")
	s = strings.ReplaceAll(s, "const ", "")
	switch s {
	case "void":
		return CVoid, nil
	case "int", "long", "long long", "int32_t", "int64_t":
		return CInt, nil
	case "double", "float":
		return CDouble, nil
	case "char*":
		return CString, nil
	case "double*", "float*":
		return CDoublePtr, nil
	case "int*", "long*":
		return CIntPtr, nil
	}
	return CVoid, fmt.Errorf("swig: unsupported C type %q (near %s)", s, context)
}

// declsByHeader holds each header's declarations by header text: a
// library is bound on every rank of every run, and its header is parsed
// once per process.
var declsByHeader sync.Map // string -> []*FuncDecl

// declarations returns ParseHeader(header), parsed once per process. The
// slice and its FuncDecls are shared, and must not be modified.
func declarations(header string) ([]*FuncDecl, error) {
	if d, ok := declsByHeader.Load(header); ok {
		return d.([]*FuncDecl), nil
	}
	decls, err := ParseHeader(header)
	if err != nil {
		return nil, err
	}
	d, _ := declsByHeader.LoadOrStore(header, slices.Clip(decls))
	return d.([]*FuncDecl), nil
}

// Bind registers one Tcl command per declaration of the library's
// header, named <libname>::<func> (and also the bare function name,
// matching Tcl package conventions where the pkgIndex imports names).
// This is the runtime effect of loading a SWIG-generated module. The
// declarations returned are shared by every Bind of the same header and
// must not be modified.
func Bind(in *tcl.Interp, lib *nativelib.Library) ([]*FuncDecl, error) {
	decls, err := declarations(lib.Header)
	if err != nil {
		return nil, err
	}
	for _, d := range decls {
		kernel, err := lib.Resolve(d.Name)
		if err != nil {
			return nil, err
		}
		cmd := makeWrapper(d, kernel)
		in.RegisterCommand(lib.Name+"::"+d.Name, cmd)
		in.RegisterCommand(d.Name, cmd)
	}
	return decls, nil
}

// makeWrapper builds the Tcl command that performs the type conversions
// wrap.c would perform.
func makeWrapper(d *FuncDecl, kernel nativelib.Kernel) tcl.Command {
	return func(in *tcl.Interp, args []string) (string, error) {
		if len(args)-1 != len(d.Params) {
			return "", fmt.Errorf("swig: %s expects %d args, got %d", d.Name, len(d.Params), len(args)-1)
		}
		native := make([]any, len(d.Params))
		for i, p := range d.Params {
			raw := args[i+1]
			switch p.Type {
			case CInt:
				v, err := strconv.ParseInt(strings.TrimSpace(raw), 0, 64)
				if err != nil {
					return "", fmt.Errorf("swig: %s: argument %q is not an int for %s", d.Name, raw, p.Name)
				}
				native[i] = v
			case CDouble:
				v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
				if err != nil {
					return "", fmt.Errorf("swig: %s: argument %q is not a double for %s", d.Name, raw, p.Name)
				}
				native[i] = v
			case CString:
				native[i] = raw
			case CDoublePtr, CIntPtr:
				// Blob data travels as raw bytes in the Tcl string.
				native[i] = blob.New([]byte(raw))
			default:
				return "", fmt.Errorf("swig: %s: unsupported parameter type %v", d.Name, p.Type)
			}
		}
		out, err := kernel(native)
		if err != nil {
			return "", fmt.Errorf("swig: %s: %w", d.Name, err)
		}
		switch v := out.(type) {
		case nil:
			return "", nil
		case int64:
			return strconv.FormatInt(v, 10), nil
		case float64:
			return lang.Float(v).Render(), nil
		case string:
			return v, nil
		case blob.Blob:
			return string(v.Data), nil
		}
		return "", fmt.Errorf("swig: %s returned unsupported type %T", d.Name, out)
	}
}

// GenerateWrapper renders the generated wrapper module source (the
// wrap.c / pkgIndex.tcl analogue) for documentation and packaging.
func GenerateWrapper(lib *nativelib.Library) (string, error) {
	decls, err := declarations(lib.Header)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Generated by swig (reproduction) -- Tcl bindings for %s\n", lib.Name)
	fmt.Fprintf(&b, "package provide %s 1.0\n", lib.Name)
	for _, d := range decls {
		fmt.Fprintf(&b, "# %s\n", d.Signature())
		fmt.Fprintf(&b, "#   -> Tcl command %s::%s (%d args)\n", lib.Name, d.Name, len(d.Params))
	}
	return b.String(), nil
}
