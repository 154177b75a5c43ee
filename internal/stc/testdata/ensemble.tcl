proc u:main {} {
    set t_xs_d1 [turbine::allocate container]
    set t2 [turbine::literal_float 0.8147]
    turbine::container_insert $t_xs_d1 0 $t2
    set t3 [turbine::literal_float 1.9058]
    turbine::container_insert $t_xs_d1 1 $t3
    set t4 [turbine::literal_float 2.127]
    turbine::container_insert $t_xs_d1 2 $t4
    set t_out_d5 [turbine::allocate container]
    turbine::write_refcount $t_out_d5 1
    turbine::rule [list $t_xs_d1] [list sw:asplit u:loop6 [list $t_out_d5] [list $t_out_d5] $t_xs_d1]
    set t_total_d10 [turbine::allocate float]
    set t11 [turbine::allocate blob]
    turbine::rule [list $t_out_d5] [list sw:vpack $t11 float $t_out_d5]
    turbine::leaf python $t_total_d10 float s: s:sum(argv1) $t11
    turbine::rule [list $t_total_d10] [list sw:printf {string float} [list s:total=%.17g $t_total_d10]]
    turbine::write_refcount $t_xs_d1 -1
    turbine::write_refcount $t_out_d5 -1
}
proc u:loop6 {v_x v_i v_out} {
    set t_a_d7 [turbine::allocate float]
    turbine::leaf python $t_a_d7 float s: s:argv1*2+1 $v_x
    set t_c_d8 [turbine::allocate float]
    turbine::leaf r $t_c_d8 float s: s:argv1+0.5 $t_a_d7
    set t9 [turbine::allocate float]
    turbine::leaf julia $t9 float s: s:argv1*argv1 $t_c_d8
    turbine::container_insert $v_out $v_i $t9
}
