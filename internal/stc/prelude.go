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

# Copy a closed datum into another, with int->float promotion. Blob to
# blob copies duplicate the stored value typed (dims and element kind
# intact) instead of round-tripping the payload through a Tcl string.
proc sw:copy {dst src srctype dsttype} {
    if {$srctype eq "blob" && $dsttype eq "blob"} {
        turbine::copy_blob $dst $src
        return
    }
    set v [turbine::retrieve_$srctype $src]
    turbine::store_$dsttype $dst $v
}

# Engine-side binary operator on closed operands.
proc sw:binop {out op outtype ltype l rtype r} {
    set a [turbine::retrieve_$ltype $l]
    set b [turbine::retrieve_$rtype $r]
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
    set a [turbine::retrieve_$xtype $x]
    switch -exact -- $op {
        "-" { set v [expr {-$a}] }
        "!" { set v [expr {!$a}] }
        default { error "sw:unop: bad op $op" }
    }
    if {$outtype eq "float"} { set v [expr {double($v)}] }
    turbine::store_$outtype $out $v
}

# Retrieve a list of data ids by a parallel list of types.
proc sw:vals {types ids} {
    set out {}
    foreach t $types id $ids {
        lappend out [turbine::retrieve_$t $id]
    }
    return $out
}

# printf: first arg is the format (Swift %i maps to Tcl %d).
proc sw:printf {types ids} {
    set vals [sw:vals $types $ids]
    set fmt [string map {%i %d} [lindex $vals 0]]
    puts [format $fmt {*}[lrange $vals 1 end]]
}

# trace: print all values, comma separated, prefixed like Swift/T.
proc sw:trace {types ids} {
    set vals [sw:vals $types $ids]
    puts "trace: [join $vals ,]"
}

# Engine-side builtin dispatch.
proc sw:builtin {name out outtype types ids} {
    set vals [sw:vals $types $ids]
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

# Worker-side leaf builtin dispatch: blob interchange is handled here;
# any other leaf name falls back to the embedded-language registry's
# string surface <name>::eval (compiled interlanguage calls use
# sw:leafcall below instead).
proc sw:leaf {name out outtype types ids} {
    set vals [sw:vals $types $ids]
    switch -exact -- $name {
        blob_from_string { set v [lindex $vals 0] }
        string_from_blob { set v [lindex $vals 0] }
        blob_size        { set v [string length [lindex $vals 0]] }
        default          { set v [${name}::eval {*}$vals] }
    }
    turbine::store_$outtype $out $v
}

# Worker-side typed interlanguage dispatch (Engine v2): only TD ids
# travel in the action string; <name>::call — installed per rank from the
# lang registry, so a newly registered language needs no prelude edits —
# loads the arguments from the data store as typed values (blobs by
# reference, dims intact), pre-binds them in the engine as argv1..argvN,
# and stores the typed result directly. No element data renders as text.
proc sw:leafcall {name out outtype ids} {
    ${name}::call $out $outtype {*}$ids
}

# Container -> vector (vpack): fires when the container closes; chains a
# rule on all members (which may still be open), then a worker gathers
# them through the batched data plane (one RPC per owning server, never
# one per element) and packs one blob TD with dims recorded. Only the
# container's id travels in the action: engine and worker each enumerate
# it in Go, and neither member ids nor element data render as text
# anywhere on the route.
proc sw:vpack {out elemtype c} {
    turbine::rule_members $c "turbine::vpack_gather $out $elemtype $c" type work
}

# Vector -> container (vunpack): fires when the blob closes; a worker
# scatters it into one closed member TD per element in a single batched
# store, then drops the construction reference, closing the array.
proc sw:vunpack {out elemtype b} {
    turbine::vunpack $out $elemtype $b
    turbine::write_refcount $out -1
}

# Array element read: fires when the container is closed and the
# subscript value is available; chains a copy rule on the member.
proc sw:aread {out outtype c sub subtype} {
    set sv [turbine::retrieve_$subtype $sub]
    set m [turbine::container_lookup $c $sv]
    set mt [turbine::typeof $m]
    turbine::rule [list $m] "sw:copy $out $m $mt $outtype"
}

# Array element write: fires when the subscript value is available; the
# caller has already taken a write reference on the container.
proc sw:ainsert {c sub elem} {
    set sv [turbine::retrieve_integer $sub]
    turbine::container_insert $c $sv $elem
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
    turbine::rule_members $c "sw:ajoin_fire $out $c $sep"
}

proc sw:ajoin_fire {out c sep} {
    turbine::store_string $out [join [turbine::container_values $c] [turbine::retrieve_string $sep]]
}

# Build a range container [lo:hi:step]; drops the creation reference when
# construction completes, closing the array.
proc sw:range_build {c lo hi step} {
    set lov [turbine::retrieve_integer $lo]
    set hiv [turbine::retrieve_integer $hi]
    set stv [turbine::retrieve_integer $step]
    if {$stv == 0} { error "sw:range_build: zero step" }
    set idx 0
    for {set i $lov} {$i <= $hiv} {incr i $stv} {
        set m [turbine::literal_integer $i]
        turbine::container_insert $c $idx $m
        incr idx
    }
    turbine::write_refcount $c -1
}

# Range loop split: chop [lo:hi:step] into chunks and spawn each as a
# distributed control fragment so any engine may expand it (paper Fig. 2:
# dataflow evaluation has no serial bottleneck).
proc sw:rsplit {body freeargs warrs lo hi step} {
    set lov [turbine::retrieve_integer $lo]
    set hiv [turbine::retrieve_integer $hi]
    set stv [turbine::retrieve_integer $step]
    if {$stv == 0} { error "sw:rsplit: zero step" }
    set n [expr {($hiv - $lov) / $stv + 1}]
    if {$n <= 0} {
        foreach w $warrs { turbine::write_refcount $w -1 }
        return
    }
    set lanes [expr {[turbine::engines] * 4}]
    set chunk [expr {($n + $lanes - 1) / $lanes}]
    if {$chunk < 1} { set chunk 1 }
    set nchunks [expr {($n + $chunk - 1) / $chunk}]
    # Each chunk inherits one write reference per written array.
    foreach w $warrs {
        if {$nchunks > 1} { turbine::write_refcount $w [expr {$nchunks - 1}] }
    }
    for {set ci 0} {$ci < $nchunks} {incr ci} {
        set start [expr {$lov + $ci * $chunk * $stv}]
        set count [expr {min($chunk, $n - $ci * $chunk)}]
        turbine::spawn "sw:rchunk $body [list $freeargs] [list $warrs] $start $count $stv"
    }
}

# One chunk of a split range loop: register each iteration's body.
proc sw:rchunk {body freeargs warrs start count step} {
    for {set k 0} {$k < $count} {incr k} {
        set iv [expr {$start + $k * $step}]
        set i [turbine::literal_integer $iv]
        $body $i {*}$freeargs
    }
    foreach w $warrs { turbine::write_refcount $w -1 }
}

# Array loop split: fires when the container closes; registers the body
# once per member (with the subscript as an extra leading argument when
# hasidx is 1).
proc sw:asplit {body freeargs warrs c hasidx} {
    foreach {sub m} [turbine::container_enumerate $c] {
        if {$hasidx} {
            set i [turbine::literal_integer $sub]
            $body $m $i {*}$freeargs
        } else {
            $body $m {*}$freeargs
        }
    }
    foreach w $warrs { turbine::write_refcount $w -1 }
}

# Conditional: fires when the condition closes; evaluates one branch proc
# ("-" means no else branch), then releases array write references.
proc sw:if {cond thenproc elseproc freeargs warrs} {
    set v [turbine::retrieve_integer $cond]
    if {$v} {
        $thenproc {*}$freeargs
    } elseif {$elseproc ne "-"} {
        $elseproc {*}$freeargs
    }
    foreach w $warrs { turbine::write_refcount $w -1 }
}
`
