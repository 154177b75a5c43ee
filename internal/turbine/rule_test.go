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

// addRule asks the servers once per rule — one Subscribe RPC per owning
// server — about exactly the inputs it knows nothing of: not the ones it
// has seen closed, not the ones an earlier rule subscribed, and a
// repeated input once. The world has two servers; ids are minted by hand
// so that id mod 2 picks the owner.
func TestAddRuleBatchesSubscribes(t *testing.T) {
	stats := &adlb.Stats{}
	cfg := &Config{
		Engines: 1, Servers: 2, Stats: stats,
		Setup: func(in *tcl.Interp, env *Env) error {
			registerCreate(in, env)
			// test::addrule <label> <inputs> <wantPending> <wantRPCs>
			in.RegisterCommand("test::addrule", func(in *tcl.Interp, args []string) (string, error) {
				fields, err := tcl.ParseList(args[2])
				if err != nil {
					return "", err
				}
				inputs := make([]int64, len(fields))
				for i, f := range fields {
					if inputs[i], err = parseInt(f); err != nil {
						return "", err
					}
				}
				r := &rule{action: "test::record fired " + args[1], target: adlb.AnyRank}
				before := stats.DataOps.Load()
				if err := env.engine.addRule(inputs, r); err != nil {
					return "", err
				}
				got := fmt.Sprintf("%d %d", r.pending, stats.DataOps.Load()-before)
				if want := args[3] + " " + args[4]; got != want {
					return "", fmt.Errorf("rule %s on %v: pending and RPCs = %s, want %s", args[1], inputs, got, want)
				}
				return "", nil
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

				test::addrule open [list $b] 1 1
				# a: asked (closed); b: subscribed by the rule above; c: asked
				# once though named twice (open); d: asked (closed).
				test::addrule mixed [list $a $b $c $c $d] 3 2
				# Everything already known closed: no RPC, fires at once.
				test::addrule known [list $a $d $a] 0 0
				test::addrule none {} 0 0
				# Already subscribed and still open: waits without asking.
				test::addrule again [list $c $b] 2 0

				turbine::store_integer $b 2
				turbine::store_integer $c 3
			}
		`),
		Main: "main",
	}
	rows := runTurbine(t, 4, cfg).sorted()
	if want := "fired again,fired known,fired mixed,fired none,fired open"; strings.Join(rows, ",") != want {
		t.Fatalf("rows = %v, want %s", rows, want)
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
// one subscribe per server; container_size and container_values read the
// container the same way.
func TestRuleMembers(t *testing.T) {
	stats := &adlb.Stats{}
	cfg := &Config{
		Engines: 1, Servers: 2, Stats: stats,
		Setup: func(in *tcl.Interp, env *Env) error {
			registerCreate(in, env)
			in.RegisterCommand("test::dataops", func(in *tcl.Interp, args []string) (string, error) {
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
	// One enumerate, then one subscribe on each of the two servers.
	want := []string{"empty 0 <>", "rpcs 3", "size 40", "values " + strings.Join(vals, " ")}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}
