package lang

import (
	"fmt"
	"strconv"
)

// Immediate tags: the two-byte prefix that marks an action argument word
// as a typed value rather than a TD id. Booleans travel as integers, as
// they are stored; blobs and containers are never immediates.
const (
	ImmInt    = "i:"
	ImmFloat  = "f:"
	ImmString = "s:"
)

// Operand is one argument word of a rule action: the id of a TD whose
// value is in the data store, or a small value the compiler or engine
// already held when it built the action, which then reaches the worker
// inside the work item itself.
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
