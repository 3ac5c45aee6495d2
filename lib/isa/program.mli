(** Assembled program images.

    A program is a flat array of resolved instructions laid out at
    consecutive 4-byte addresses starting at [base_address], mirroring
    the text segment of a MIPS binary with the default linker layout.
    Function boundaries and loop-bound annotations (attached to loop
    header labels by the compiler) survive assembly, because the CFG
    recovery and the IPET formulation need them. *)

type item =
  | Label of string
  | Ins of Instr.labeled

type func = {
  fn_name : string;
  fn_start : int;  (** index of the first instruction *)
  fn_len : int;
}

type source = {
  src_functions : (string * item list) list;
      (** in layout order; the first function is the program entry *)
  src_bounds : (string * int) list;
      (** loop-header label [->] max body iterations per loop entry *)
}

type t = private {
  code : Instr.resolved array;
  base_address : int;
  functions : func list;
  loop_bounds : (int * int) list;  (** header instruction index [->] bound *)
  entry : int;  (** instruction index of the entry point *)
}

exception Assembly_error of string

val assemble : ?base_address:int -> source -> t
(** Lays the functions out consecutively and resolves labels.
    @raise Assembly_error on duplicate/undefined labels, empty code, or a
    bound annotation naming an unknown label. *)

val instruction_count : t -> int
val address_of_index : t -> int -> int
val index_of_address : t -> int -> int
(** @raise Invalid_argument for unmapped or misaligned addresses. *)

val instruction : t -> int -> Instr.resolved
val function_at : t -> int -> func
(** Function containing the given instruction index. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing with function headers and label-free targets. *)
