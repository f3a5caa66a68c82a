// Paper Listing 7: the Australia map-colouring verifier.
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
  input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
  output valid;
  assign valid = WA != NT && WA != SA && NT != SA && NT != QLD
              && SA != QLD && SA != NSW && SA != VIC && QLD != NSW
              && NSW != VIC && NSW != ACT;
endmodule
