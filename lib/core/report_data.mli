(** Derived quantities for the paper's evaluation (Fig. 4 and the
    in-text aggregates of Section IV-B). *)

type row = {
  name : string;
  wcet_ff : int;
  pwcet_none : int;
  pwcet_srb : int;
  pwcet_rw : int;
}

val gain : row -> protected:int -> float
(** Relative pWCET reduction vs no protection:
    [(pwcet_none - protected) / pwcet_none]. *)

val gain_srb : row -> float
val gain_rw : row -> float

val normalized : row -> float * float * float
(** (fault-free, SRB, RW) pWCETs normalised to the no-protection pWCET —
    the normalised columns of Fig. 4. *)

val category : row -> int
(** The paper's four behavioural categories (Section IV-B):
    1. both mechanisms reach the fault-free WCET;
    2. RW reaches it, SRB does not;
    3. neither reaches it and both gain about the same;
    4. mixed behaviours (everything else). *)

val average_gains : row list -> float * float
(** (average RW gain, average SRB gain) over rows. *)

val min_gain : row list -> (row -> float) -> string * float
(** Benchmark with the smallest gain under the given accessor. *)
