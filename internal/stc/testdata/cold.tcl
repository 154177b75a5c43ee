catch {package require libsim}
proc u:wave {td_o td_i} {
    set in_i [turbine::value integer $td_i]
    set out_o [ sim_waveform $in_i 0.1 ]
    turbine::store_float $td_o $out_o
}
proc u:main {} {
    turbine::rule [list] [list sw:rsplit u:loop1 [list] [list] i:0 i:7 i:1]
}
proc u:loop1 {v_i _} {
    set t_w_d2 [turbine::allocate float]
    turbine::rule [list] [list u:wave $t_w_d2 i:$v_i] type work
    set t_p_d3 [turbine::allocate string]
    turbine::leaf python $t_p_d3 string {s:y = 1 + 1} s:y
    set t_s_d4 [turbine::allocate string]
    turbine::leaf r $t_s_d4 string {s:v <- 1:3} s:sum(v)
}
