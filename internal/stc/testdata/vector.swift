(float s) trip(float a, float b) {
	blob b0 = python("v = []\nfor k in range(40):\n    v.append(argv1 + k * argv2)", "v", a, b);
	float x0[] = vunpack(b0);
	blob b1 = vpack(x0);
	blob b2 = r("", "argv1 + 0.25", b1);
	float x1[] = vunpack(b2);
	blob b3 = vpack(x1);
	s = julia("", "sum(argv1)", b3);
}
float out[];
out[0] = trip(1.6047, 0.5915);
out[1] = trip(1.0936, 0.2042);
float total = python("", "sum(argv1)", vpack(out));
printf("total=%.17g", total);
