(** Terminal rendering of exceedance curves (the paper's Fig. 3). *)

val exceedance :
  ?width:int ->
  ?height:int ->
  series:(string * (int * float) list) list ->
  unit ->
  string
(** Log-scale complementary cumulative distribution plot. Each series is
    a staircase [(wcet, P(WCET >= wcet))]; probabilities below [1e-18]
    are clipped. *)
