(** Programs decoded once into flat parallel arrays.

    Matching the [Instr.resolved] variant on every executed instruction
    dominates a long run. Decoding once per program turns each
    instruction into a small-int opcode plus three integer operand
    fields, and precomputes the cache set and memory block of every
    instruction address, so the interpreter's hot loop only indexes int
    arrays and the trace replay maps a fetch to its set and block by
    one lookup. *)

(* Opcode kinds ([kind] array). ALU register and immediate forms share
   the binop sub-code ([sub] array); [Alui] and [Shift] both read a
   register and an immediate, so they decode identically. *)
val k_alu : int (* a=rd, b=rs, c=rt *)
val k_alui : int (* a=rd, b=rs, c=imm/shamt *)
val k_li : int (* a=rd, c=imm (pre-wrapped) *)
val k_lw : int (* a=rt, b=base, c=offset *)
val k_sw : int
val k_lb : int
val k_sb : int
val k_beq2 : int (* sub=cond, a=rs, b=rt, c=target index *)
val k_beqz : int (* sub=cond, a=rs, c=target index *)
val k_j : int (* c=target index *)
val k_jal : int
val k_jr : int (* a=rs *)
val k_nop : int
val k_halt : int

type t = private {
  kind : int array;
  sub : int array;  (** binop/cond code; 0 elsewhere *)
  a : int array;
  b : int array;
  c : int array;
  iset : int array;  (** cache set of instruction [i]'s address *)
  iblock : int array;  (** memory block of instruction [i]'s address *)
  base_address : int;
  entry : int;
  count : int;
  config : Cache.Config.t;
}

val decode : config:Cache.Config.t -> Isa.Program.t -> t
