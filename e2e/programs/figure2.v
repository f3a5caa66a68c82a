// Paper Figure 2(a): a mux selecting add or subtract.
module circuit (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
