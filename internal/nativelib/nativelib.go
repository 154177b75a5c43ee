// Package nativelib models the native-code side of the paper's §III-B:
// compiled C/C++/Fortran libraries whose functions are made callable from
// Swift through SWIG-generated Tcl bindings. A Library is the loadable
// shared object (symbols resolved by name, as dlopen would); the kernels
// here are Go functions with C-like signatures operating on scalars and
// blobs, standing in for the compiled numerics the paper's applications
// use (the repro environment has no cgo, so the "native" ABI boundary is
// the typed argument marshalling, which is the part the paper's
// machinery actually exercises).
package nativelib

import (
	"fmt"
	"math"

	"repro/internal/blob"
)

// Kernel is one native function: it receives already-converted arguments
// (int64, float64, string, or blob.Blob per its declared signature) and
// returns one value of those types (or nil for void).
type Kernel func(args []any) (any, error)

// Library is a loadable native library: a symbol table plus the C header
// describing its exported functions (the input to SWIG).
type Library struct {
	Name    string
	Header  string
	symbols map[string]Kernel
}

// NewLibrary creates an empty library.
func NewLibrary(name, header string) *Library {
	return &Library{Name: name, Header: header, symbols: map[string]Kernel{}}
}

// Define adds a symbol to the library.
func (l *Library) Define(name string, k Kernel) { l.symbols[name] = k }

// Resolve looks a symbol up, as dlsym would.
func (l *Library) Resolve(name string) (Kernel, error) {
	k, ok := l.symbols[name]
	if !ok {
		return nil, fmt.Errorf("nativelib: undefined symbol %q in %s", name, l.Name)
	}
	return k, nil
}

// ---- libsim: the numerical kernels used by the examples/benchmarks ----

// SimHeader is the C header for the libsim example library, processed by
// the swig package to produce Tcl bindings (paper Fig. 3).
const SimHeader = `
/* libsim: core numerics for the ensemble examples (compute.c) */
double sim_energy(double* data, int n);
double sim_lattice(int cells, int steps, double coupling);
void   sim_scale(double* data, int n, double factor);
int    sim_count_above(double* data, int n, double threshold);
double sim_dot(double* a, double* b, int n);
char*  sim_version();
double sim_waveform(int i, double dt);
`

// NewSimLibrary builds the libsim library with its kernels defined.
func NewSimLibrary() *Library {
	l := NewLibrary("libsim", SimHeader)

	l.Define("sim_energy", func(args []any) (any, error) {
		data, n, err := blobAndLen(args, 0, 1)
		if err != nil {
			return nil, err
		}
		// A Lennard-Jones-flavoured pair energy over a 1-D chain.
		e := 0.0
		for i := 1; i < n; i++ {
			r := math.Abs(data[i]-data[i-1]) + 1e-9
			r6 := math.Pow(1.0/r, 6)
			e += 4 * (r6*r6 - r6)
		}
		return e, nil
	})

	l.Define("sim_lattice", func(args []any) (any, error) {
		if err := arity(args, 3); err != nil {
			return nil, err
		}
		cells, ok1 := args[0].(int64)
		steps, ok2 := args[1].(int64)
		coupling, ok3 := args[2].(float64)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("sim_lattice: bad argument types")
		}
		if cells < 1 || steps < 0 {
			return nil, fmt.Errorf("sim_lattice: invalid extents %d x %d", cells, steps)
		}
		// Deterministic relaxation of a 1-D lattice (heat equation-ish).
		cur := make([]float64, cells)
		for i := range cur {
			cur[i] = math.Sin(float64(i) * 0.7)
		}
		next := make([]float64, cells)
		for s := int64(0); s < steps; s++ {
			for i := range cur {
				left := cur[(i-1+int(cells))%int(cells)]
				right := cur[(i+1)%int(cells)]
				next[i] = cur[i] + coupling*(left+right-2*cur[i])
			}
			cur, next = next, cur
		}
		total := 0.0
		for _, v := range cur {
			total += v * v
		}
		return total, nil
	})

	l.Define("sim_scale", func(args []any) (any, error) {
		if err := arity(args, 3); err != nil {
			return nil, err
		}
		b, ok := args[0].(blob.Blob)
		if !ok {
			return nil, fmt.Errorf("sim_scale: arg 0 must be a blob")
		}
		n, ok := args[1].(int64)
		if !ok {
			return nil, fmt.Errorf("sim_scale: arg 1 must be an int")
		}
		factor, ok := args[2].(float64)
		if !ok {
			return nil, fmt.Errorf("sim_scale: arg 2 must be a double")
		}
		data, err := blob.ToFloat64s(b)
		if err != nil {
			return nil, err
		}
		if int(n) > len(data) {
			return nil, fmt.Errorf("sim_scale: n=%d exceeds buffer of %d", n, len(data))
		}
		for i := 0; i < int(n); i++ {
			data[i] *= factor
		}
		// In C this mutates in place; across our ABI we return the blob.
		return blob.FromFloat64s(data), nil
	})

	l.Define("sim_count_above", func(args []any) (any, error) {
		data, n, err := blobAndLen(args, 0, 1)
		if err != nil {
			return nil, err
		}
		if err := arity(args, 3); err != nil {
			return nil, err
		}
		th, ok := args[2].(float64)
		if !ok {
			return nil, fmt.Errorf("sim_count_above: arg 2 must be a double")
		}
		count := int64(0)
		for i := 0; i < n; i++ {
			if data[i] > th {
				count++
			}
		}
		return count, nil
	})

	l.Define("sim_dot", func(args []any) (any, error) {
		if err := arity(args, 3); err != nil {
			return nil, err
		}
		ab, ok1 := args[0].(blob.Blob)
		bb, ok2 := args[1].(blob.Blob)
		n, ok3 := args[2].(int64)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("sim_dot: bad argument types")
		}
		av, err := blob.ToFloat64s(ab)
		if err != nil {
			return nil, err
		}
		bv, err := blob.ToFloat64s(bb)
		if err != nil {
			return nil, err
		}
		if int(n) > len(av) || int(n) > len(bv) {
			return nil, fmt.Errorf("sim_dot: n=%d exceeds buffers (%d, %d)", n, len(av), len(bv))
		}
		s := 0.0
		for i := 0; i < int(n); i++ {
			s += av[i] * bv[i]
		}
		return s, nil
	})

	l.Define("sim_version", func(args []any) (any, error) {
		if err := arity(args, 0); err != nil {
			return nil, err
		}
		return "libsim 1.0 (reproduction)", nil
	})

	l.Define("sim_waveform", func(args []any) (any, error) {
		if err := arity(args, 2); err != nil {
			return nil, err
		}
		i, ok1 := args[0].(int64)
		dt, ok2 := args[1].(float64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sim_waveform: bad argument types")
		}
		t := float64(i) * dt
		return math.Sin(2*math.Pi*t) + 0.25*math.Sin(6*math.Pi*t), nil
	})

	return l
}

func arity(args []any, n int) error {
	if len(args) != n {
		return fmt.Errorf("nativelib: expected %d arguments, got %d", n, len(args))
	}
	return nil
}

func blobAndLen(args []any, bi, ni int) ([]float64, int, error) {
	if len(args) <= ni {
		return nil, 0, fmt.Errorf("nativelib: missing arguments")
	}
	b, ok := args[bi].(blob.Blob)
	if !ok {
		return nil, 0, fmt.Errorf("nativelib: arg %d must be a blob (double*)", bi)
	}
	n, ok := args[ni].(int64)
	if !ok {
		return nil, 0, fmt.Errorf("nativelib: arg %d must be an int length", ni)
	}
	data, err := blob.ToFloat64s(b)
	if err != nil {
		return nil, 0, err
	}
	if int(n) > len(data) {
		return nil, 0, fmt.Errorf("nativelib: n=%d exceeds buffer of %d doubles", n, len(data))
	}
	return data, int(n), nil
}
