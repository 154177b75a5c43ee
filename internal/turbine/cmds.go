package turbine

import (
	"fmt"
	"strconv"

	"repro/internal/adlb"
	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/lang"
	"repro/internal/tcl"
)

// fillKinds builds a chunk kind column of n identical tags, for handing a
// packed numeric payload to StoreChunk as its Num column verbatim.
func fillKinds(n int, k byte) []byte {
	ks := make([]byte, n)
	for i := range ks {
		ks[i] = k
	}
	return ks
}

// registerDataCmds installs the turbine::* data-store commands available
// on every client rank (engines and workers).
func registerDataCmds(in *tcl.Interp, env *Env) {
	cl := env.Client

	reg := func(name string, fn tcl.Command) { in.RegisterCommand("turbine::"+name, fn) }

	reg("engines", func(in *tcl.Interp, args []string) (string, error) {
		return strconv.Itoa(env.Cfg.Engines), nil
	})

	// allocate <typename> -> id: unique, plus create for a container. A
	// scalar TD needs no create: its owner makes it at its first store or
	// wait, so allocating one costs no data op on the (serial) expansion
	// path.
	reg("allocate", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", fmt.Errorf("usage: turbine::allocate <type>")
		}
		typ, err := typeByName(args[1])
		if err != nil {
			return "", err
		}
		id, err := cl.Unique()
		if err != nil {
			return "", err
		}
		if typ == adlb.TypeContainer {
			if err := cl.Create(id, typ); err != nil {
				return "", err
			}
		}
		return fmtInt(id), nil
	})

	// store_<type> <id> <value>: the text converts as the data plane
	// converts a string result stored into a TD of that type; void ignores
	// it.
	for _, td := range []string{"integer", "float", "string", "blob", "void"} {
		reg("store_"+td, func(in *tcl.Interp, args []string) (string, error) {
			if len(args) != 3 {
				return "", fmt.Errorf("usage: %s <id> <value>", args[0])
			}
			id, err := parseInt(args[1])
			if err != nil {
				return "", err
			}
			sv := lang.Str(args[2])
			v, err := toStore(td, &sv, &env.plane.num)
			if err != nil {
				return "", err
			}
			return "", cl.Store(id, v)
		})
	}

	// value <type> <operand>: the one typed read, what compiled code reads
	// its scalar inputs with. An operand is a TD id, read as its row, or a
	// typed immediate (lang.DecodeOperand), answered with no data op.
	// Either reads as its own type, or an integer as a float; any other
	// mismatch is an error. Both then render through lang, so a value
	// reads identically from a TD or an immediate; a void TD reads as "".
	reg("value", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 3 {
			return "", fmt.Errorf("usage: turbine::value <type> <operand>")
		}
		want, err := typeByName(args[1])
		if err != nil {
			return "", err
		}
		op, err := lang.DecodeOperand(args[2])
		if err != nil {
			return "", err
		}
		have, v := immType(op.Val.Kind()), op.Val
		if !op.Imm {
			ck, err := cl.RetrieveChunk([]int64{op.ID})
			if err != nil {
				return "", err
			}
			vals, err := lang.ChunkToValues(ck, false)
			if err != nil {
				return "", err
			}
			have, v = adlb.DataType(ck.Kinds[0]), vals[0]
		}
		if !readsAs(have, want) {
			return "", fmt.Errorf("turbine: value: %s is %v, expected %v", args[2], have, want)
		}
		if want == adlb.TypeFloat {
			f, err := v.AsFloat()
			if err != nil {
				return "", err
			}
			v = lang.Float(f)
		}
		return v.Render(), nil
	})
	// Typed blob copy: duplicates the stored value wholesale, so dims
	// and element kind survive copies that never needed the payload as
	// text (sw:copy uses it for blob -> blob).
	reg("copy_blob", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 3 {
			return "", fmt.Errorf("usage: turbine::copy_blob <dst> <src>")
		}
		dst, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		src, err := parseInt(args[2])
		if err != nil {
			return "", err
		}
		v, found, err := cl.Retrieve(src)
		if err != nil {
			return "", err
		}
		if !found {
			return "", fmt.Errorf("turbine: copy_blob: no such id %d", src)
		}
		if v.Type != adlb.TypeBlob {
			return "", fmt.Errorf("turbine: copy_blob: id %d is %v", src, v.Type)
		}
		return "", cl.Store(dst, v)
	})

	// Container operations.
	reg("container_lookup", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 3 {
			return "", fmt.Errorf("usage: turbine::container_lookup <c> <subscript>")
		}
		c, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		member, exists, err := cl.Lookup(c, args[2])
		if err != nil {
			return "", err
		}
		if !exists {
			return "", fmt.Errorf("turbine: container %d has no subscript %q", c, args[2])
		}
		return fmtInt(member), nil
	})
	reg("container_insert", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 4 {
			return "", fmt.Errorf("usage: turbine::container_insert <c> <subscript> <member>")
		}
		c, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		m, err := parseInt(args[3])
		if err != nil {
			return "", err
		}
		return "", cl.Insert(c, args[2], m)
	})
	reg("container_enumerate", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", fmt.Errorf("usage: turbine::container_enumerate <c>")
		}
		c, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return "", err
		}
		out := make([]string, 0, 2*len(pairs))
		for _, p := range pairs {
			out = append(out, p.Subscript, fmtInt(p.Member))
		}
		return tcl.FormatList(out), nil
	})
	// container_size and container_values answer what a whole-array
	// builtin needs from a closed container in O(1) RPCs per server,
	// without the enumeration passing through Tcl.
	reg("container_size", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", fmt.Errorf("usage: turbine::container_size <c>")
		}
		pairs, err := enumerate(cl, args[1])
		if err != nil {
			return "", err
		}
		return strconv.Itoa(len(pairs)), nil
	})
	// container_values: the members' values in insertion order, rendered
	// as turbine::value renders each, from one batched load.
	reg("container_values", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", fmt.Errorf("usage: turbine::container_values <c>")
		}
		pairs, err := enumerate(cl, args[1])
		if err != nil {
			return "", err
		}
		ck, err := cl.RetrieveChunk(memberIDs(pairs))
		if err != nil {
			return "", err
		}
		vals, err := lang.ChunkToValues(ck, false)
		if err != nil {
			return "", err
		}
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = v.Render()
		}
		return tcl.FormatList(out), nil
	})
	reg("write_refcount", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 3 {
			return "", fmt.Errorf("usage: turbine::write_refcount <id> <delta>")
		}
		id, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		delta, err := parseInt(args[2])
		if err != nil {
			return "", err
		}
		return "", cl.WriteRefcount(id, int(delta))
	})

	// Container<->vector bridge (typed plane). vpack_gather packs a
	// closed container of closed numeric members into one blob TD with
	// dims recorded; vunpack scatters a blob TD into a container of
	// scalar members. Both move element data through the batched data
	// plane — one RPC per owning server, never one per element, and no
	// element ever renders as text.
	reg("vpack_gather", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 4 {
			return "", fmt.Errorf("usage: turbine::vpack_gather <out> <elemtype> <container>")
		}
		out, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		elemtype := args[2]
		// The action names only the (closed) container; its enumeration is
		// fetched here, by the rank that needs it, and never travels as
		// text.
		pairs, err := enumerate(cl, args[3])
		if err != nil {
			return "", err
		}
		// Members arrive in insertion order (parallel loop chunks insert
		// in any order); the vector is laid out by integer subscript.
		ids := make([]int64, len(pairs))
		seen := make([]bool, len(pairs))
		for _, p := range pairs {
			idx, err := strconv.Atoi(p.Subscript)
			if err != nil || idx < 0 || idx >= len(ids) {
				return "", fmt.Errorf("turbine: vpack: subscript %q is not a dense index", p.Subscript)
			}
			if seen[idx] {
				return "", fmt.Errorf("turbine: vpack: duplicate index %d", idx)
			}
			seen[idx] = true
			ids[idx] = p.Member
		}
		dp := env.plane
		// Columnar gather: the members arrive as one chunk per owning
		// server. A homogeneous numeric chunk's Num column is already the
		// packed payload — the blob below aliases it (which may alias the
		// RPC response frame), and the StoreAs encodes it onto the wire
		// before the frame's release point, so the whole gather moves the
		// element data without one per-element box or copy.
		ck, err := dp.LoadChunk(ids)
		if err != nil {
			return "", err
		}
		var b blob.Blob
		k, homogeneous := ck.AllKind()
		switch elemtype {
		case "float":
			if homogeneous && k == chunk.KindFloat {
				b = blob.Blob{Data: ck.Num, Elem: blob.ElemF64}
				break
			}
			vals, err := lang.ChunkToValues(ck, false)
			if err != nil {
				return "", err
			}
			xs := make([]float64, len(vals))
			for i, v := range vals {
				if xs[i], err = v.AsFloat(); err != nil {
					return "", fmt.Errorf("turbine: vpack: element %d: %w", i, err)
				}
			}
			b = blob.FromFloat64s(xs)
		case "integer":
			if homogeneous && k == chunk.KindInt {
				b = blob.Blob{Data: ck.Num, Elem: blob.ElemI64}
				break
			}
			vals, err := lang.ChunkToValues(ck, false)
			if err != nil {
				return "", err
			}
			ns := make([]int64, len(vals))
			for i, v := range vals {
				if ns[i], err = v.AsInt(); err != nil {
					return "", fmt.Errorf("turbine: vpack: element %d: %w", i, err)
				}
			}
			b = blob.FromInt64s(ns)
		default:
			return "", fmt.Errorf("turbine: vpack: cannot pack %q elements", elemtype)
		}
		b.Dims = []int{ck.Len()}
		return "", dp.StoreAs(out, "blob", lang.BlobOf(b))
	})
	reg("vunpack", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 4 {
			return "", fmt.Errorf("usage: turbine::vunpack <out-container> <elemtype> <blob>")
		}
		out, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		elemtype := args[2]
		bid, err := parseInt(args[3])
		if err != nil {
			return "", err
		}
		dp := env.plane
		// Columnar scatter: load the blob as a chunk row (its payload
		// aliases the response frame — no copy), and when the element
		// width already matches the stored encoding hand the payload
		// straight to StoreChunk as the Num column. The store RPC encodes
		// onto the wire before the loaded frame's release point, so the
		// scatter moves the data without boxing per element.
		lk, err := dp.LoadChunk([]int64{bid})
		if err != nil {
			return "", err
		}
		lv, err := lang.ChunkToValues(lk, false)
		if err != nil {
			return "", err
		}
		v := lv[0]
		if v.Kind() != lang.KindBlob {
			return "", fmt.Errorf("turbine: vunpack: id %d holds %s, not a blob", bid, v.Kind())
		}
		bl := v.AsBlob()
		var sc lang.Chunk
		switch elemtype {
		case "float":
			if bl.Elem == blob.ElemF64 && len(bl.Data)%8 == 0 {
				sc.Kinds = fillKinds(len(bl.Data)/8, chunk.KindFloat)
				sc.Num = bl.Data
				break
			}
			xs, err := bl.Floats()
			if err != nil {
				return "", fmt.Errorf("turbine: vunpack: %w", err)
			}
			for _, x := range xs {
				sc.AppendFloat(x)
			}
		case "integer":
			switch bl.Elem {
			case blob.ElemI64:
				if len(bl.Data)%8 == 0 {
					sc.Kinds = fillKinds(len(bl.Data)/8, chunk.KindInt)
					sc.Num = bl.Data
					break
				}
				ns, err := blob.ToInt64s(blob.Blob{Data: bl.Data})
				if err != nil {
					return "", fmt.Errorf("turbine: vunpack: %w", err)
				}
				for _, n := range ns {
					sc.AppendInt(n)
				}
			case blob.ElemI32:
				ns, err := blob.ToInt32s(blob.Blob{Data: bl.Data})
				if err != nil {
					return "", fmt.Errorf("turbine: vunpack: %w", err)
				}
				for _, n := range ns {
					sc.AppendInt(int64(n))
				}
			default:
				// Float-kind (or raw) payload into an int array: every
				// element must be exactly integral.
				xs, err := bl.Floats()
				if err != nil {
					return "", fmt.Errorf("turbine: vunpack: %w", err)
				}
				for i, x := range xs {
					n := int64(x)
					if float64(n) != x {
						return "", fmt.Errorf("turbine: vunpack: element %d (%v) is not an integer", i, x)
					}
					sc.AppendInt(n)
				}
			}
		default:
			return "", fmt.Errorf("turbine: vunpack: cannot unpack into %q elements", elemtype)
		}
		return "", dp.StoreChunk(out, sc)
	})

	// literal_<type> <value> -> id: unique + store, for a known value
	// that has to be a TD (a container member, a composite function's
	// argument). The text converts as the data plane converts a string
	// result stored into a TD of that type.
	for _, typ := range []adlb.DataType{adlb.TypeInteger, adlb.TypeFloat, adlb.TypeString} {
		typ := typ
		reg("literal_"+typ.String(), func(in *tcl.Interp, args []string) (string, error) {
			if len(args) != 2 {
				return "", fmt.Errorf("usage: %s <value>", args[0])
			}
			sv := lang.Str(args[1])
			v, err := toStore(typ.String(), &sv, &env.plane.num)
			if err != nil {
				return "", err
			}
			id, err := cl.Unique()
			if err != nil {
				return "", err
			}
			if err := cl.Store(id, v); err != nil {
				return "", err
			}
			return fmtInt(id), nil
		})
	}
}

// enumerate lists the container named by a command argument: its
// (subscript, member) pairs in insertion order.
func enumerate(cl *adlb.Client, arg string) ([]adlb.Pair, error) {
	c, err := parseInt(arg)
	if err != nil {
		return nil, err
	}
	return cl.Enumerate(c)
}

// memberIDs drops an enumeration's subscripts, leaving the member ids in
// the form rules and batched loads take.
func memberIDs(pairs []adlb.Pair) []int64 {
	ids := make([]int64, len(pairs))
	for i, p := range pairs {
		ids[i] = p.Member
	}
	return ids
}

// readsAs reports whether a value of type have reads as type want: as
// its own type, or an integer as a float.
func readsAs(have, want adlb.DataType) bool {
	return have == want || have == adlb.TypeInteger && want == adlb.TypeFloat
}

// immType is the data type of an immediate of kind k.
func immType(k lang.Kind) adlb.DataType {
	switch k {
	case lang.KindInt:
		return adlb.TypeInteger
	case lang.KindFloat:
		return adlb.TypeFloat
	case lang.KindString:
		return adlb.TypeString
	}
	return adlb.TypeBlob
}

func typeByName(name string) (adlb.DataType, error) {
	switch name {
	case "void":
		return adlb.TypeVoid, nil
	case "integer", "int":
		return adlb.TypeInteger, nil
	case "float":
		return adlb.TypeFloat, nil
	case "string":
		return adlb.TypeString, nil
	case "blob":
		return adlb.TypeBlob, nil
	case "container":
		return adlb.TypeContainer, nil
	}
	return 0, fmt.Errorf("turbine: unknown data type %q", name)
}

// registerEngineCmds installs the engine-only dataflow commands.
func registerEngineCmds(in *tcl.Interp, env *Env) {
	eng := env.engine

	// turbine::rule {input ids} {action} ?option value ...?
	// Options: type (control|work), target N, priority N.
	in.RegisterCommand("turbine::rule", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 3 {
			return "", fmt.Errorf("usage: turbine::rule <inputs> <action> ?options?")
		}
		inputStrs, err := tcl.ParseList(args[1])
		if err != nil {
			return "", err
		}
		inputs := make([]int64, len(inputStrs))
		for i, s := range inputStrs {
			inputs[i], err = parseInt(s)
			if err != nil {
				return "", err
			}
		}
		return "", eng.addRule(inputs, args)
	})

	// turbine::rule_members <container> {action} ?option value ...?
	// A rule on every member of a closed container (same options as
	// turbine::rule). The container is enumerated here, in Go, so a
	// whole-array wait costs one enumerate and then one Put of the member
	// ids, work rule or control rule alike, and no Tcl text per member; an
	// empty container releases at once.
	in.RegisterCommand("turbine::rule_members", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 3 {
			return "", fmt.Errorf("usage: turbine::rule_members <container> <action> ?options?")
		}
		pairs, err := enumerate(env.Client, args[1])
		if err != nil {
			return "", err
		}
		return "", eng.addRule(memberIDs(pairs), args)
	})

	// turbine::leaf <engine> <out> <outtype> <operand>...: an
	// interlanguage leaf call. Each operand word decodes once, here, to a
	// typed immediate or a TD id; the call travels as one leaf record,
	// Put with its TD operands as wait ids, so the servers hold it until
	// they close and the worker runs it with no Tcl.
	in.RegisterCommand("turbine::leaf", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) < 4 {
			return "", fmt.Errorf("usage: turbine::leaf <engine> <out> <outtype> <operand>...")
		}
		out, err := parseInt(args[2])
		if err != nil {
			return "", err
		}
		sc := &eng.leaf
		leaf := lang.Leaf{Engine: args[1], Out: out, OutType: args[3], Args: sc.ops[:0]}
		sc.wait = sc.wait[:0]
		for _, word := range args[4:] {
			op, err := lang.DecodeOperand(word)
			if err != nil {
				return "", fmt.Errorf("turbine::leaf: %w", err)
			}
			leaf.Args = append(leaf.Args, op)
			if !op.Imm {
				sc.wait = append(sc.wait, op.ID)
			}
		}
		sc.ops = leaf.Args
		if s := eng.stats(); s != nil {
			s.RulesCreated.Add(1)
		}
		rec, err := leafRecord(sc.rec[:0], &leaf, &sc.rows)
		if err != nil {
			return "", err
		}
		sc.rec = rec
		return "", env.Client.Put(TypeWork, 0, adlb.AnyRank, rec, sc.wait...)
	})

	// turbine::spawn <action>: release a control fragment to any engine,
	// the mechanism behind distributed loop splitting.
	in.RegisterCommand("turbine::spawn", func(in *tcl.Interp, args []string) (string, error) {
		if len(args) != 2 && len(args) != 3 {
			return "", fmt.Errorf("usage: turbine::spawn <action> ?priority?")
		}
		prio := 0
		if len(args) == 3 {
			p, err := parseInt(args[2])
			if err != nil {
				return "", err
			}
			prio = int(p)
		}
		return "", env.Client.Put(TypeControl, prio, adlb.AnyRank, []byte(args[1]))
	})
}

// parseRule reads a rule command's options: args[0] is the command (named
// in errors), args[3:] option/value pairs — type (control|work), target
// N, priority N. A control rule ignores target and priority.
func parseRule(args []string) (work bool, target, priority int, err error) {
	target = adlb.AnyRank
	opts := args[3:]
	if len(opts)%2 != 0 {
		return false, 0, 0, fmt.Errorf("%s: option %q has no value", args[0], opts[len(opts)-1])
	}
	for i := 0; i < len(opts); i += 2 {
		opt, val := opts[i], opts[i+1]
		switch opt {
		case "type":
			switch val {
			case "work":
				work = true
			case "control":
				work = false
			default:
				return false, 0, 0, fmt.Errorf("%s: bad type %q", args[0], val)
			}
		case "target":
			t, err := parseInt(val)
			if err != nil {
				return false, 0, 0, err
			}
			target = int(t)
		case "priority":
			p, err := parseInt(val)
			if err != nil {
				return false, 0, 0, err
			}
			priority = int(p)
		default:
			return false, 0, 0, fmt.Errorf("%s: unknown option %q", args[0], opt)
		}
	}
	return work, target, priority, nil
}
