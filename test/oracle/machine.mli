(** Cycle-counting reference interpreter for assembled programs: the
    independent oracle [Sim.Machine]'s flat interpreter and
    [Sim.Campaign]'s trace replay are held to (a variant dispatch per
    instruction, a [Hashtbl] memory, a closure per fetch).

    The machine charges exactly the instruction-fetch cost supplied by
    the [fetch] oracle for each executed instruction and nothing else,
    matching the paper's experimental setup where only the instruction
    cache contributes to the WCET (hit 1 cycle, miss 100 cycles; data
    accesses and the pipeline are not modelled). Plugging a concrete
    cache simulator in as the oracle yields execution times directly
    comparable with the analytical WCET bounds.

    Arithmetic wraps to 32-bit two's complement, like the MIPS R2000. *)

type status =
  | Halted
  | Out_of_fuel  (** [max_steps] exceeded *)

type result = {
  status : status;
  cycles : int;       (** total fetch cycles charged by the oracle *)
  instructions : int; (** dynamic instruction count *)
  return_value : int; (** contents of $v0 at the end *)
  regs : int array;   (** final register file (copy) — for differential
                          cross-validation of alternative interpreters *)
}

exception Trap of string
(** Division by zero, unaligned or wild memory access, jump outside the
    text segment. *)

val run :
  ?max_steps:int ->
  ?args:int list ->
  ?memory_init:(int * int) list ->
  ?fetch:(int -> int) ->
  ?on_fetch:(int -> unit) ->
  Isa.Program.t ->
  result
(** [run program] interprets from the entry point until [Halt].
    [args] are loaded into $a0..$a3; [memory_init] pre-loads data words
    (word-aligned byte address, value) — the compiler's data image goes
    here. [fetch addr] returns the cost of fetching the instruction at
    byte address [addr] (default: constant 1). [on_fetch] observes the
    fetched address stream (for trace-based cross-validation). Default
    [max_steps] is [50_000_000]. *)

val run_trace : Isa.Program.t -> int list
(** Convenience: full instruction-fetch address trace of a run with the
    default oracle. *)

val run_compiled :
  ?max_steps:int ->
  ?fetch:(int -> int) ->
  ?on_fetch:(int -> unit) ->
  Minic.Compile.compiled ->
  result
(** {!run} with the compiler's data image pre-loaded. *)
