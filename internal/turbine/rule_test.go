package turbine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/adlb"
	"repro/internal/tcl"
)

// registerCreate installs test::create <id> <type>: a typed declaration
// of an id minted by hand, so a test picks which server owns it (id mod
// servers) where turbine::allocate would mint on the rank's home server.
func registerCreate(in *tcl.Interp, env *Env) {
	in.RegisterCommand("test::create", func(in *tcl.Interp, args []string) (string, error) {
		id, err := parseInt(args[1])
		if err != nil {
			return "", err
		}
		typ, err := typeByName(args[2])
		if err != nil {
			return "", err
		}
		return "", env.Client.Create(id, typ)
	})
}

// A control rule waits at the servers as a work rule does, as one Put
// carrying its inputs, so registering one costs no data op whatever it
// waits on: a repeated input, a closed one, an input another rule waits
// on too. It fires once, on the engine that made it, when its last input
// closes, and its action reads the inputs the delivering server owns
// from the rows that came with it, with no chunk load. A rule with no
// inputs runs with no Put. The world has two servers; ids are minted by
// hand so that id mod 2 picks the owner, and the engine's home server,
// which delivers its rules, owns the even ones.
func TestControlRuleIsOneHeldPut(t *testing.T) {
	stats := &adlb.Stats{}
	cfg := &Config{
		Engines: 1, Servers: 2, Stats: stats,
		Setup: func(in *tcl.Interp, env *Env) error {
			registerCreate(in, env)
			in.RegisterCommand("test::dataops", func(in *tcl.Interp, args []string) (string, error) {
				// The engine's writes so far reach the servers first.
				if err := env.Client.Flush(); err != nil {
					return "", err
				}
				return fmtInt(stats.DataOps.Load()), nil
			})
			in.RegisterCommand("test::loads", func(in *tcl.Interp, args []string) (string, error) {
				return fmtInt(stats.OpChunkLoad.Load()), nil
			})
			return nil
		},
		ProgramScript: script(t, `
			proc main {} {
				# a, c on server 0; b, d on server 1. a and d are closed.
				lassign {1000000 1000001 1000002 1000003} a b c d
				foreach id [list $a $b $c $d] { test::create $id integer }
				turbine::store_integer $a 1
				turbine::store_integer $d 4

				set before [test::dataops]
				turbine::rule [list $b] "test::record fired open"
				turbine::rule [list $a $b $c $c $d] "reads mixed $a $c"
				turbine::rule [list $a $d $a] "reads known $a $a"
				turbine::rule {} "test::record fired none"
				turbine::rule [list $c $b] "test::record fired again"
				test::record registering cost [expr {[test::dataops] - $before}] data ops

				turbine::store_integer $b 2
				turbine::store_integer $c 3
			}
			proc reads {label x y} {
				set before [test::loads]
				set sum [expr {[turbine::value integer $x] + [turbine::value integer $y]}]
				test::record fired $label $sum with [expr {[test::loads] - $before}] loads
			}
		`),
		Main: "main",
	}
	rows := runTurbine(t, 4, cfg).sorted()
	want := []string{
		"fired again", "fired known 2 with 0 loads", "fired mixed 4 with 0 loads",
		"fired none", "fired open", "registering cost 0 data ops",
	}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}

// Both rule commands take the same option list through one parser, which
// rejects a trailing option with no value instead of ignoring it.
func TestRuleOptionsSharedParser(t *testing.T) {
	cfg := &Config{
		Engines: 1, Servers: 1,
		ProgramScript: script(t, `
			proc main {} {
				set c [turbine::allocate container]
				turbine::write_refcount $c -1
				foreach cmd [list [list turbine::rule {}] [list turbine::rule_members $c]] {
					foreach opts {{priority} {type work target} {colour red} {type leaf} {name n}} {
						catch {{*}$cmd "test::record never" {*}$opts} msg
						test::record [lindex $cmd 0] $opts -> $msg
					}
					{*}$cmd "test::record ran [lindex $cmd 0]" priority 3 type control
				}
			}
		`),
		Main: "main",
	}
	rows := runTurbine(t, 3, cfg).sorted()
	var want []string
	for _, cmd := range []string{"turbine::rule", "turbine::rule_members"} {
		want = append(want,
			cmd+` colour red -> `+cmd+`: unknown option "colour"`,
			cmd+` priority -> `+cmd+`: option "priority" has no value`,
			cmd+` type leaf -> `+cmd+`: bad type "leaf"`,
			cmd+` type work target -> `+cmd+`: option "target" has no value`,
			cmd+` name n -> `+cmd+`: unknown option "name"`,
		)
	}
	want = append(want, "ran turbine::rule", "ran turbine::rule_members")
	sort.Strings(want)
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}

// turbine::rule_members waits on a closed container's members, wherever
// they are and whether or not they are closed yet, for one enumerate and
// one Put, which is not a data op; container_size and container_values
// read the container the same way.
func TestRuleMembers(t *testing.T) {
	stats := &adlb.Stats{}
	cfg := &Config{
		Engines: 1, Servers: 2, Stats: stats,
		Setup: func(in *tcl.Interp, env *Env) error {
			registerCreate(in, env)
			in.RegisterCommand("test::dataops", func(in *tcl.Interp, args []string) (string, error) {
				// The engine's writes so far reach the servers first.
				if err := env.Client.Flush(); err != nil {
					return "", err
				}
				return fmtInt(stats.DataOps.Load()), nil
			})
			return nil
		},
		ProgramScript: script(t, `
			proc main {} {
				set c [turbine::allocate container]
				set open {}
				for {set i 0} {$i < 40} {incr i} {
					# Members alternate between the two servers; every
					# fourth is still open when the rule is registered.
					set m [expr {2000000 + $i}]
					test::create $m integer
					turbine::container_insert $c $i $m
					if {$i % 4 == 3} { lappend open $m } else { turbine::store_integer $m $i }
				}
				turbine::write_refcount $c -1
				set before [test::dataops]
				turbine::rule_members $c "fire $c"
				test::record rpcs [expr {[test::dataops] - $before}]
				foreach m $open { turbine::rule [list] "turbine::store_integer $m 7" type work }

				set e [turbine::allocate container]
				turbine::write_refcount $e -1
				turbine::rule_members $e "test::record empty \[turbine::container_size $e\] <\[turbine::container_values $e\]>"
			}
			proc fire {c} {
				test::record size [turbine::container_size $c]
				test::record values [turbine::container_values $c]
			}
		`),
		Main: "main",
	}
	rows := runTurbine(t, 4, cfg).sorted()
	var vals []string
	for i := 0; i < 40; i++ {
		if i%4 == 3 {
			vals = append(vals, "7")
		} else {
			vals = append(vals, fmt.Sprint(i))
		}
	}
	// One enumerate; the rule's Put is not a data op.
	want := []string{"empty 0 <>", "rpcs 1", "size 40", "values " + strings.Join(vals, " ")}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}
