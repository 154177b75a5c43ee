package rlite

// Typed binding of blob bulk data into the R surface (paper §III-C meets
// §III-B): a blob argument decodes into a real R numeric vector — so
// fragments use native vectorised arithmetic on it — and numeric-vector
// results pack back into blobs. Packing prefers the prototype of the
// incoming argument (element kind and Fortran dims), so an identity
// round-trip of a float32 or int32 vector leaves the interpreter
// bit-exact rather than widened; see blob.PackLike. A result that is a
// bound argument's own vector, never written in place (NumVec.Written),
// needs no packing at all: the host hands back that argument's bytes.

import (
	"fmt"

	"repro/internal/blob"
)

// NumVecFromBlob decodes packed bytes into an R numeric vector under the
// blob's element view. Narrow element kinds widen exactly; int64 values
// beyond the exactly-representable double range are rejected rather than
// silently rounded (R's numeric type is a float64, and a rounded value
// would repack "bit-exact" to the wrong integer).
func NumVecFromBlob(b blob.Blob) (*NumVec, error) {
	if sz := b.Elem.Size(); len(b.Data)%sz != 0 {
		return nil, fmt.Errorf("rlite: %d bytes is not a whole number of %s elements", len(b.Data), b.Elem)
	}
	if b.Elem == blob.ElemI64 {
		ns, err := blob.ToInt64s(blob.Blob{Data: b.Data})
		if err != nil {
			return nil, err
		}
		const maxExact = int64(1) << 53
		for _, n := range ns {
			if n > maxExact || n < -maxExact {
				return nil, fmt.Errorf("rlite: int64 value %d is not exactly representable as an R double", n)
			}
		}
	}
	xs, err := b.Floats()
	if err != nil {
		return nil, err
	}
	return &NumVec{V: xs}, nil
}

// SetGlobal binds a value into the interpreter's global environment;
// hosts use it to pre-bind fragment arguments (argv1..argvN), as a C
// embedding would via Rf_defineVar.
func (in *Interp) SetGlobal(name string, v Value) { in.globals.set(name, v) }

// DelGlobal removes a global binding (a no-op if absent); hosts use it
// to unbind stale pre-bound arguments between fragments.
func (in *Interp) DelGlobal(name string) { delete(in.globals.vars, name) }
