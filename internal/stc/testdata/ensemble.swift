float xs[];
xs[0] = 0.8147;
xs[1] = 1.9058;
xs[2] = 2.1270;
float out[];
foreach x, i in xs {
	float a = python("", "argv1*2+1", x);
	float c = r("", "argv1+0.5", a);
	out[i] = julia("", "argv1*argv1", c);
}
float total = python("", "sum(argv1)", vpack(out));
printf("total=%.17g", total);
