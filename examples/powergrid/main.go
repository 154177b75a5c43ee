// Powergrid: a power-grid contingency ensemble, one of the application
// domains named in the paper's introduction. Each contingency drops one
// line from a small DC power-flow model (solved in the embedded Python
// interpreter), Swift fans the contingencies out across workers, and an
// R fragment ranks the overload scores at the end.
//
// Run: go run ./examples/powergrid
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
)

const program = `
// Score one contingency: a toy DC load-flow on a 6-bus ring where line k
// is out of service; overload score is the max flow on remaining lines.
(string score) contingency(int k) {
    string code = strcat(
        "k = ", toString(k), "\n",
        "flows = []\n",
        "for i in range(6):\n",
        "    if i != k:\n",
        "        flows.append(abs(100.0 / (1 + (i - k) % 6)))\n",
        "worst = max(flows)");
    score = python(code, "worst");
}

string scores[];
foreach k in [0:5] {
    string s = contingency(k);
    printf("contingency %i -> overload %s", k, s);
    scores[k] = s;
}

// Rank the ensemble with R once every contingency has completed: the
// Swift array of scores becomes an R vector via join_array.
string ranked = r(
    "x <- c(" + join_array(scores, ",") + ")",
    "paste('max overload', max(x), 'at line', which(x == max(x))[1] - 1)");
printf("summary: %s", ranked);
`

func main() {
	res, err := core.Run(program, core.Config{
		Engines: 1,
		Workers: 6,
		Servers: 1,
		Out:     os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "powergrid:", err)
		os.Exit(1)
	}
	fmt.Printf("--\ncontingency ensemble done: %d python evals, %d R evals, elapsed %v\n",
		res.Evals["python"], res.Evals["r"], res.Elapsed)
}
