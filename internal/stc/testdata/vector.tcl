proc u:trip {v_s v_a v_b} {
    set t_b0_d1 [turbine::allocate blob]
    turbine::leaf python $t_b0_d1 blob {s:v = []
for k in range(40):
    v.append(argv1 + k * argv2)} s:v $v_a $v_b
    set t_x0_d2 [turbine::allocate container]
    turbine::rule [list $t_b0_d1] [list sw:vunpack $t_x0_d2 float $t_b0_d1] type work
    set t_b1_d3 [turbine::allocate blob]
    turbine::rule [list $t_x0_d2] [list sw:vpack $t_b1_d3 float $t_x0_d2]
    set t_b2_d4 [turbine::allocate blob]
    turbine::leaf r $t_b2_d4 blob s: {s:argv1 + 0.25} $t_b1_d3
    set t_x1_d5 [turbine::allocate container]
    turbine::rule [list $t_b2_d4] [list sw:vunpack $t_x1_d5 float $t_b2_d4] type work
    set t_b3_d6 [turbine::allocate blob]
    turbine::rule [list $t_x1_d5] [list sw:vpack $t_b3_d6 float $t_x1_d5]
    turbine::leaf julia $v_s float s: s:sum(argv1) $t_b3_d6
}
proc u:main {} {
    set t_out_d7 [turbine::allocate container]
    set t8 [turbine::allocate float]
    set t9 [turbine::literal_float 1.6047]
    set t10 [turbine::literal_float 0.5915]
    u:trip $t8 $t9 $t10
    turbine::container_insert $t_out_d7 0 $t8
    set t11 [turbine::allocate float]
    set t12 [turbine::literal_float 1.0936]
    set t13 [turbine::literal_float 0.2042]
    u:trip $t11 $t12 $t13
    turbine::container_insert $t_out_d7 1 $t11
    set t_total_d14 [turbine::allocate float]
    set t15 [turbine::allocate blob]
    turbine::rule [list $t_out_d7] [list sw:vpack $t15 float $t_out_d7]
    turbine::leaf python $t_total_d14 float s: s:sum(argv1) $t15
    turbine::rule [list $t_total_d14] [list sw:printf {string float} [list s:total=%.17g $t_total_d14]]
    turbine::write_refcount $t_out_d7 -1
}
