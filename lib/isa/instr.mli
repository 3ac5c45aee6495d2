(** Instructions of the MIPS-like target ISA.

    The set mirrors the MIPS R2000/R3000 integer subset the paper's
    benchmarks compile to, with symbolic branch targets (resolved to
    absolute instruction indices by {!Program.assemble}) and without
    delay slots. Every instruction occupies 4 bytes. *)

type label = string

(** Binary ALU operations (register-register). *)
type binop =
  | Add
  | Sub
  | Mul
  | Div   (** signed division; traps on zero divisor at execution *)
  | Rem
  | And
  | Or
  | Xor
  | Nor
  | Slt   (** set-if-less-than, signed *)
  | Sltu
  | Sllv
  | Srlv
  | Srav

(** Branch comparison conditions (register vs register or vs zero). *)
type cond =
  | Eq
  | Ne
  | Lez
  | Gtz
  | Ltz
  | Gez

type 'target t =
  | Alu of binop * Reg.t * Reg.t * Reg.t        (** [Alu (op, rd, rs, rt)] *)
  | Alui of binop * Reg.t * Reg.t * int         (** immediate form; [Add]/[And]/[Or]/[Xor]/[Slt] only *)
  | Shift of binop * Reg.t * Reg.t * int        (** [Sllv]/[Srlv]/[Srav] with constant shamt *)
  | Li of Reg.t * int                           (** load immediate (lui/ori pseudo) *)
  | Lw of Reg.t * int * Reg.t                   (** [Lw (rt, offset, base)] *)
  | Sw of Reg.t * int * Reg.t
  | Lb of Reg.t * int * Reg.t
  | Sb of Reg.t * int * Reg.t
  | Beq2 of cond * Reg.t * Reg.t * 'target      (** [Eq]/[Ne] forms *)
  | Beqz of cond * Reg.t * 'target              (** compare-to-zero forms *)
  | J of 'target
  | Jal of 'target
  | Jr of Reg.t                                 (** indirect jump; [Jr ra] is return *)
  | Nop
  | Halt                                        (** terminate the task *)

type labeled = label t
(** Instructions as emitted by the compiler: targets are symbolic. *)

type resolved = int t
(** Instructions after assembly: targets are absolute instruction
    indices into the program image. *)

val map_target : ('a -> 'b) -> 'a t -> 'b t

val is_control_flow : 'a t -> bool
(** True for branches, jumps, [Jr] and [Halt] — anything that ends a
    basic block. *)

val pp : (Format.formatter -> 'target -> unit) -> Format.formatter -> 'target t -> unit
val pp_resolved : Format.formatter -> resolved -> unit
