// Package stc implements the Swift-to-Turbine compiler (STC) of the
// paper: it translates a type-checked Swift program into Turbine code —
// Tcl that calls the turbine::* runtime commands. The generated program
// is loaded into every rank's interpreter; engine rank 0 seeds execution
// by invoking the generated main proc, whose statements register dataflow
// rules. Leaf work (Tcl-template extension functions, app commands, and
// interpreter builtins like python/R) is released to workers through
// ADLB; control fragments (loop splits, branches) are distributed across
// engines.
package stc

// Prelude is the fixed runtime support library emitted ahead of every
// compiled program. Names use the flat "sw:" prefix rather than Tcl
// namespaces so that rule actions are location-independent strings.
const Prelude = `
# ---- STC runtime prelude (generated; do not edit) ----

# Copy a closed datum into another of the given type; turbine::value
# promotes an integer source where the type is float. Blob copies
# duplicate the stored value typed (dims and element kind intact) instead
# of round-tripping the payload through a Tcl string.
proc sw:copy {dst src type} {
    if {$type eq "blob"} {
        turbine::copy_blob $dst $src
        return
    }
    turbine::store_$type $dst [turbine::value $type $src]
}

# An operand is the id of a closed TD or a typed immediate (i:5, f:1.5,
# s:text) carrying a value the compiler or engine already held; the rule
# that released the action waited only on the TDs. turbine::value reads
# either.

# Engine-side binary operator.
proc sw:binop {out op outtype ltype l rtype r} {
    set a [turbine::value $ltype $l]
    set b [turbine::value $rtype $r]
    if {$ltype eq "string" || $rtype eq "string"} {
        switch -exact -- $op {
            "+"  { set v "$a$b" }
            "==" { set v [string equal $a $b] }
            "!=" { set v [expr {![string equal $a $b]}] }
            "<"  { set v [expr {[string compare $a $b] < 0}] }
            "<=" { set v [expr {[string compare $a $b] <= 0}] }
            ">"  { set v [expr {[string compare $a $b] > 0}] }
            ">=" { set v [expr {[string compare $a $b] >= 0}] }
            default { error "sw:binop: bad string op $op" }
        }
    } else {
        set v [expr "\$a $op \$b"]
    }
    if {$outtype eq "float"} { set v [expr {double($v)}] }
    set comparison [lsearch -exact {== != < <= > >= && ||} $op]
    if {$outtype eq "integer" && $comparison < 0} {
        set v [expr {int($v)}]
    }
    turbine::store_$outtype $out $v
}

# Engine-side unary operator.
proc sw:unop {out op outtype xtype x} {
    set a [turbine::value $xtype $x]
    switch -exact -- $op {
        "-" { set v [expr {-$a}] }
        "!" { set v [expr {!$a}] }
        default { error "sw:unop: bad op $op" }
    }
    if {$outtype eq "float"} { set v [expr {double($v)}] }
    turbine::store_$outtype $out $v
}

# The values of a list of operands, by a parallel list of types.
proc sw:vals {types ops} {
    set out {}
    foreach t $types o $ops {
        lappend out [turbine::value $t $o]
    }
    return $out
}

# printf: first arg is the format (Swift %i maps to Tcl %d).
proc sw:printf {types ops} {
    set vals [sw:vals $types $ops]
    set fmt [string map {%i %d} [lindex $vals 0]]
    puts [format $fmt {*}[lrange $vals 1 end]]
}

# trace: print all values, comma separated, prefixed like Swift/T.
proc sw:trace {types ops} {
    set vals [sw:vals $types $ops]
    puts "trace: [join $vals ,]"
}

# Engine-side builtin dispatch.
proc sw:builtin {name out outtype types ops} {
    set vals [sw:vals $types $ops]
    switch -exact -- $name {
        strcat   { set v [join $vals ""] }
        toString { set v [lindex $vals 0] }
        fromInt  { set v [lindex $vals 0] }
        toInt    { set v [expr {int([lindex $vals 0])}] }
        toFloat  { set v [expr {double([lindex $vals 0])}] }
        itof     { set v [expr {double([lindex $vals 0])}] }
        ftoi     { set v [expr {int([lindex $vals 0])}] }
        strlen   { set v [string length [lindex $vals 0]] }
        sqrt     { set v [expr {sqrt([lindex $vals 0])}] }
        floor    { set v [expr {floor([lindex $vals 0])}] }
        ceil     { set v [expr {ceil([lindex $vals 0])}] }
        round    { set v [expr {double(round([lindex $vals 0]))}] }
        abs      { set v [expr {abs([lindex $vals 0])}] }
        default  { error "sw:builtin: unknown builtin $name" }
    }
    turbine::store_$outtype $out $v
}

# Worker-side blob interchange builtins. (Interlanguage calls need no
# prelude proc: each is one turbine::leaf, which the engine rank sends to
# a worker as a typed leaf record, so a newly registered language needs
# no prelude edits. The worker runs it with no Tcl: it takes the
# immediates from the record, loads the TD operands as typed values in
# one batch, and stores the typed result directly. No element data
# renders as text.)
proc sw:leaf {name out outtype types ops} {
    set vals [sw:vals $types $ops]
    switch -exact -- $name {
        blob_from_string { set v [lindex $vals 0] }
        string_from_blob { set v [lindex $vals 0] }
        blob_size        { set v [string length [lindex $vals 0]] }
    }
    turbine::store_$outtype $out $v
}

# Container -> vector (vpack): fires when the container closes; chains a
# rule on all members (which may still be open), then a worker gathers
# them through the batched data plane (one RPC per owning server, never
# one per element) and packs one blob TD with dims recorded. Only the
# container's id travels in the action: engine and worker each enumerate
# it in Go, and neither member ids nor element data render as text
# anywhere on the route.
proc sw:vpack {out elemtype c} {
    turbine::rule_members $c [list turbine::vpack_gather $out $elemtype $c] type work
}

# Vector -> container (vunpack): fires when the blob closes; a worker
# scatters it into one closed member TD per element in a single batched
# store, then drops the construction reference, closing the array.
proc sw:vunpack {out elemtype b} {
    turbine::vunpack $out $elemtype $b
    turbine::write_refcount $out -1
}

# Array element read: fires when the container is closed and the
# subscript is known; chains a copy rule on the member, which may be
# inserted before it is stored.
proc sw:aread {out outtype c sub} {
    set m [turbine::container_lookup $c [turbine::value integer $sub]]
    turbine::rule [list $m] [list sw:copy $out $m $outtype]
}

# Array element write at a subscript still being computed: fires when the
# subscript TD closes; the caller has already taken a write reference on
# the container. (A subscript the compiler or engine already holds is a
# direct turbine::container_insert in the generated code.)
proc sw:ainsert {c sub elem} {
    turbine::container_insert $c [turbine::value integer $sub] $elem
    turbine::write_refcount $c -1
}

# Array size (fires on container close).
proc sw:asize {out c} {
    turbine::store_integer $out [turbine::container_size $c]
}

# Join a closed array's element values with a separator. Fires when the
# container closes; chains a rule on all members (which may still be
# open), then renders their values, loaded in one batch, in insertion
# order.
proc sw:ajoin {out c sep} {
    turbine::rule_members $c [list sw:ajoin_fire $out $c $sep]
}

proc sw:ajoin_fire {out c sep} {
    turbine::store_string $out [join [turbine::container_values $c] [turbine::value string $sep]]
}

# The iteration space of [lo:hi:step] as {first step count}: count is
# (hi-lo)/step+1 for either sign of step, zero when the range is empty.
proc sw:range {lo hi step} {
    set lov [turbine::value integer $lo]
    set stv [turbine::value integer $step]
    if {$stv == 0} { error "range \[lo:hi:step\]: zero step" }
    set n [expr {([turbine::value integer $hi] - $lov) / $stv + 1}]
    return [list $lov $stv [expr {max($n, 0)}]]
}

# Build a range container [lo:hi:step]; drops the creation reference when
# construction completes, closing the array.
proc sw:range_build {c lo hi step} {
    lassign [sw:range $lo $hi $step] lov stv n
    for {set k 0} {$k < $n} {incr k} {
        turbine::container_insert $c $k [turbine::literal_integer [expr {$lov + $k * $stv}]]
    }
    turbine::write_refcount $c -1
}

# Range loop split: chop [lo:hi:step] into chunks and spawn each as a
# distributed control fragment so any engine may expand it (paper Fig. 2:
# dataflow evaluation has no serial bottleneck).
proc sw:rsplit {body freeargs warrs lo hi step} {
    lassign [sw:range $lo $hi $step] lov stv n
    if {$n == 0} {
        foreach w $warrs { turbine::write_refcount $w -1 }
        return
    }
    set lanes [expr {[turbine::engines] * 4}]
    set chunk [expr {($n + $lanes - 1) / $lanes}]
    set nchunks [expr {($n + $chunk - 1) / $chunk}]
    # Each chunk inherits one write reference per written array.
    foreach w $warrs {
        if {$nchunks > 1} { turbine::write_refcount $w [expr {$nchunks - 1}] }
    }
    for {set ci 0} {$ci < $nchunks} {incr ci} {
        set ord [expr {$ci * $chunk}]
        set start [expr {$lov + $ord * $stv}]
        set count [expr {min($chunk, $n - $ord)}]
        turbine::spawn [list sw:rchunk $body $freeargs $warrs $start $count $stv $ord]
    }
}

# One chunk of a split range loop: register each iteration's body, which
# takes the loop value and its ordinal in the range by value.
proc sw:rchunk {body freeargs warrs start count step ord} {
    for {set k 0} {$k < $count} {incr k} {
        $body [expr {$start + $k * $step}] [expr {$ord + $k}] {*}$freeargs
    }
    foreach w $warrs { turbine::write_refcount $w -1 }
}

# Array loop split: fires when the container closes; registers the body
# once per member, passing the member TD and, by value, its subscript.
proc sw:asplit {body freeargs warrs c} {
    foreach {sub m} [turbine::container_enumerate $c] {
        $body $m $sub {*}$freeargs
    }
    foreach w $warrs { turbine::write_refcount $w -1 }
}

# Conditional: fires when the condition is known; evaluates one branch
# proc ("-" means no else branch), then releases array write references.
proc sw:if {cond thenproc elseproc freeargs warrs} {
    if {[turbine::value integer $cond]} {
        $thenproc {*}$freeargs
    } elseif {$elseproc ne "-"} {
        $elseproc {*}$freeargs
    }
    foreach w $warrs { turbine::write_refcount $w -1 }
}
`
