(float o) wave(int i)
	"libsim" "1.0"
	[ "set <<o>> [ sim_waveform <<i>> 0.1 ]" ];
foreach i in [0:7] {
	float w = wave(i);
	string p = python("y = 1 + 1", "y");
	string s = r("v <- 1:3", "sum(v)");
}
