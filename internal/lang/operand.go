package lang

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/chunk"
)

// Immediate tags: the two-byte prefix that marks an action argument word
// as a typed value rather than a TD id. Booleans travel as integers, as
// they are stored; blobs and containers are never immediates.
const (
	ImmInt    = "i:"
	ImmFloat  = "f:"
	ImmString = "s:"
)

// Operand is one argument of a rule action or a leaf: the id of a TD
// whose value is in the data store, or a small value the compiler or
// engine already held when it built the action, which then reaches the
// worker inside the work item itself.
type Operand struct {
	ID  int64 // the TD, when Imm is false
	Imm bool
	Val Value // the value, when Imm is true
}

// DecodeOperand is the one decoder of action argument words: a decimal
// TD id, or an immediate tag followed by the value's text — a base-10
// integer, a float in any form strconv.ParseFloat reads (so an integer
// promoted to float is exact), or the string's bytes verbatim.
func DecodeOperand(word string) (Operand, error) {
	if len(word) < 2 || word[1] != ':' {
		id, err := strconv.ParseInt(word, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("lang: operand %q is neither a TD id nor an immediate", word)
		}
		return Operand{ID: id}, nil
	}
	text := word[2:]
	switch word[:2] {
	case ImmInt:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("lang: bad integer immediate %q", word)
		}
		return Operand{Imm: true, Val: Int(n)}, nil
	case ImmFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("lang: bad float immediate %q", word)
		}
		return Operand{Imm: true, Val: Float(f)}, nil
	case ImmString:
		return Operand{Imm: true, Val: Str(text)}, nil
	}
	return Operand{}, fmt.Errorf("lang: operand %q has an unknown immediate tag", word)
}

// Leaf is one interlanguage leaf call as a worker receives it: the engine
// to run, the TD its result is stored into and that TD's turbine type,
// and one operand per argument of the call (the fixed code and expr
// strings first).
//
// Its record is chunk rows, in order: the engine name (string), the
// output TD (int), the output type (string), the argument forms (string,
// one byte per argument: 'v' when the argument's row is its value, 't'
// when it is a TD id), then one row per argument — an int, float or
// string value, or a TD id as an int.
type Leaf struct {
	Engine  string
	Out     int64
	OutType string
	Args    []Operand
}

// AppendRows appends the leaf's record rows to c. An immediate is an
// int, float or string; a blob has no row.
func (l *Leaf) AppendRows(c *Chunk) error {
	c.AppendString(l.Engine)
	c.AppendInt(l.Out)
	c.AppendString(l.OutType)
	forms := make([]byte, 0, 16)
	for i := range l.Args {
		if l.Args[i].Imm {
			forms = append(forms, 'v')
		} else {
			forms = append(forms, 't')
		}
	}
	c.AppendBytes(forms)
	for i := range l.Args {
		switch a := &l.Args[i]; {
		case !a.Imm:
			c.AppendInt(a.ID)
		case a.Val.Kind() == KindBlob || !appendValue(c, &a.Val):
			return fmt.Errorf("lang: leaf argument %d: a %s is not an immediate", i+1, a.Val.Kind())
		}
	}
	return nil
}

// DecodeLeaf reads a leaf record from c, which must be a valid chunk (as
// a decoded chunk frame is), into l, reusing its storage: the Args slice,
// and the engine and output type strings and each string immediate when
// they repeat what l held in their place (a leaf's code and expr do, from
// one leaf to the next). On an error l holds no call. Strings are copied
// out of c's columns.
func DecodeLeaf(c *Chunk, l *Leaf) error {
	d := decoder{r: c.Reader()}
	d.strOver("engine", &l.Engine)
	l.Out = d.int("output TD")
	d.strOver("output type", &l.OutType)
	forms := d.bytes("argument forms")
	// One row per form is left, so a hostile form count allocates
	// nothing the record does not already hold.
	if rows := c.Len() - 4; d.err == nil && len(forms) != rows {
		d.err = fmt.Errorf("lang: leaf record: %d argument forms, %d argument rows", len(forms), rows)
	}
	l.Args = l.Args[:0]
	for i := 0; i < len(forms) && d.err == nil; i++ {
		if i == cap(l.Args) {
			l.Args = append(l.Args, Operand{})
		}
		l.Args = l.Args[:i+1]
		a := &l.Args[i]
		switch forms[i] {
		case 't':
			*a = Operand{ID: d.int("TD argument")}
		case 'v':
			if !d.next("immediate argument", chunk.KindInt, chunk.KindFloat, chunk.KindString) {
				break
			}
			if !a.Imm || a.Val.kind != KindString || d.r.Kind() != chunk.KindString || string(d.r.Bytes()) != a.Val.s {
				rowValue(&d.r, true, &a.Val)
			}
			a.ID, a.Imm = 0, true
		default:
			d.err = fmt.Errorf("lang: leaf record: argument %d has form %q", i+1, forms[i])
		}
	}
	return d.finish()
}

// decoder reads a record's rows in order. Its error is sticky: after the
// first missing or mistyped row every read returns a zero value, and
// finish reports that error, or a row left unread.
type decoder struct {
	r    chunk.Reader
	done bool // the reader is past the last row
	err  error
}

// next advances to the next row and reports whether it is one of kinds.
func (d *decoder) next(what string, kinds ...byte) bool {
	if d.err != nil {
		return false
	}
	if d.done || !d.r.Next() {
		d.done = true
		d.err = fmt.Errorf("lang: leaf record: no %s row", what)
		return false
	}
	if bytes.IndexByte(kinds, d.r.Kind()) < 0 {
		d.err = fmt.Errorf("lang: leaf record: %s row has kind %d", what, d.r.Kind())
		return false
	}
	return true
}

// bytes reads a string row, aliasing c's Raw column.
func (d *decoder) bytes(what string) []byte {
	if !d.next(what, chunk.KindString) {
		return nil
	}
	return d.r.Bytes()
}

// strOver reads a string row into *s, keeping *s when it already holds
// those bytes.
func (d *decoder) strOver(what string, s *string) {
	if b := d.bytes(what); string(b) != *s {
		*s = string(b)
	}
}

func (d *decoder) int(what string) int64 {
	if !d.next(what, chunk.KindInt) {
		return 0
	}
	return d.r.Int()
}

// finish reports the first read error, or an error if rows are left.
func (d *decoder) finish() error {
	if d.err == nil && !d.done && d.r.Next() {
		d.done = true
		d.err = fmt.Errorf("lang: leaf record: trailing rows")
	}
	return d.err
}
