// Ensemble: a materials-science-style parameter sweep, the application
// pattern the paper's introduction motivates. A native (simulated C)
// lattice-relaxation kernel is exposed to Swift through the SWIG pipeline
// of Fig. 3; Swift sweeps the coupling parameter across workers; an
// embedded R fragment aggregates the ensemble statistics at the end —
// three languages in one dataflow program with no user MPI code.
//
// Run: go run ./examples/ensemble
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/nativelib"
)

const program = `
// Native kernel (C, via FortWrap/SWIG-style bindings): relax a lattice
// and return its total energy.
(float e) lattice(int cells, int steps, float coupling)
    "libsim" "1.0"
    [ "set <<e>> [ sim_lattice <<cells>> <<steps>> <<coupling>> ]" ];

// One ensemble member: run the kernel, report its energy.
(string line) member(int idx) {
    float c = itof(idx) / 40.0;
    float e = lattice(128, 25, c);
    line = strcat("member ", toString(idx), " coupling=", toString(c),
                  " energy=", toString(e));
}

int n = 12;
string rows[];
foreach i in [0:11] {
    string ln = member(i);
    printf("%s", ln);
    rows[i] = ln;
}

// Aggregate with embedded R once all members are done: energies form the
// sample; R computes mean and spread.
string stats = r(
    "es <- sapply(seq(0, 11), function(i) i / 40.0)",
    "paste('couplings mean=', mean(es), ' sd=', round(sd(es), 4), sep='')");
printf("R aggregate: %s", stats);
`

func main() {
	res, err := core.Run(program, core.Config{
		Engines:    1,
		Workers:    6,
		Servers:    1,
		Out:        os.Stdout,
		NativeLibs: []*nativelib.Library{nativelib.NewSimLibrary()},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ensemble:", err)
		os.Exit(1)
	}
	fmt.Printf("--\nensemble complete: %d leaf tasks across workers, %d R evals, elapsed %v\n",
		res.LeafTasks, res.Evals["r"], res.Elapsed)
}
