(** Compiler from mini-C to the target ISA.

    The code generator is deliberately naive — in the spirit of the
    paper's [gcc -O0] baseline: locals live in stack slots, expressions
    are evaluated in temporaries with stack spilling, and no
    optimisation is performed. Loop-bound annotations are carried
    through to the assembled {!Isa.Program.t} (attached to loop-header
    labels), and global initialisers are emitted as a data image rather
    than as initialisation code, mirroring a linker-populated data
    segment. *)

exception Error of string

type compiled = {
  program : Isa.Program.t;
  data : (int * int) list;
      (** initial data-segment contents: (word-aligned address, value) *)
  global_addresses : (string * int) list;
}

val compile : ?base_address:int -> ?data_base:int -> Ast.program -> compiled
(** Validates (via {!Typecheck.check}) then compiles. [main] is laid out
    first and is the entry point.
    @raise Error (or {!Typecheck.Error}) on invalid programs. *)
