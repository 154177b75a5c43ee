// Command swiftt compiles and runs a Swift program on the simulated
// distributed-memory runtime, the equivalent of the paper's
// stc + turbine launch pipeline in one step.
//
// Usage:
//
//	swiftt [-e engines] [-w workers] [-s servers] [-bgq] program.swift
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/nativelib"
	"repro/internal/shell"
)

func main() {
	engines := flag.Int("e", 1, "engine ranks (dataflow evaluation)")
	workers := flag.Int("w", 4, "worker ranks (leaf tasks)")
	servers := flag.Int("s", 1, "ADLB server ranks")
	bgq := flag.Bool("bgq", false, "simulate a Blue Gene/Q node (no process launches)")
	stats := flag.Bool("stats", false, "print runtime statistics after the run")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: swiftt [-e N] [-w N] [-s N] [-bgq] [-stats] program.swift")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftt:", err)
		os.Exit(1)
	}
	mode := shell.ModeCluster
	if *bgq {
		mode = shell.ModeBGQ
	}
	res, err := core.Run(string(src), core.Config{
		Engines:    *engines,
		Workers:    *workers,
		Servers:    *servers,
		Out:        os.Stdout,
		ShellMode:  mode,
		NativeLibs: []*nativelib.Library{nativelib.NewSimLibrary()},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "swiftt:", err)
		os.Exit(1)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "elapsed: %v\nleaf tasks: %d\ncontrol tasks: %d\n",
			res.Elapsed, res.LeafTasks, res.ControlTasks)
		langs := make([]string, 0, len(res.Evals))
		for name := range res.Evals {
			langs = append(langs, name)
		}
		sort.Strings(langs)
		for _, name := range langs {
			fmt.Fprintf(os.Stderr, "%s evals: %d\n", name, res.Evals[name])
		}
		fmt.Fprintf(os.Stderr, "process spawns: %d\nadlb: %+v\n", res.Spawns, res.ADLB)
	}
}
