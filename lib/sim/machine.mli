(** Flat-state, allocation-free ISA interpreter that reports every
    instruction fetch.

    Fault-injection campaigns run it once per program: cache faults
    change timing only, never architectural state, so one run's fetch
    trace is the trace of every fault pattern, and {!Campaign} times
    each pattern by replaying that trace through the per-set LRU
    stacks. Architectural semantics are bit-compatible with the
    reference interpreter of the tests ([Oracle.Machine]): same final
    registers, instruction count, return value and fetch trace.

    - memory is a paged flat array (64 KiB pages over the 2 GiB word
      space, allocated on first write) instead of a [Hashtbl];
    - the program is decoded once into {!Code.t} int arrays, so the hot
      loop performs no variant dispatch.

    Apart from a page's first write, an executed instruction allocates
    nothing beyond what [on_fetch] does. *)

type t

type status =
  | Halted
  | Out_of_fuel

type result = {
  status : status;
  instructions : int;
  return_value : int;
}

exception Trap of string
(** Division by zero, unaligned or wild memory access, jump outside the
    text segment. *)

val create : code:Code.t -> data:(int * int) list -> t
(** Machine for one program + data image.
    @raise Invalid_argument on an unaligned or out-of-range data word. *)

val run : ?max_steps:int -> on_fetch:(int -> unit) -> t -> result
(** Resets the machine (registers, memory image) and interprets from the
    entry point. [on_fetch] observes executed instruction {e indexes}
    (byte address = [base_address + 4*index]), in execution order.
    Default [max_steps] 50_000_000.
    @raise Trap on a runtime fault. *)

val registers : t -> int array
(** The live register file after the last run (not a copy). *)
