(** Reference interpreter for mini-C ASTs.

    Evaluates programs directly over the AST with the same 32-bit
    wrapping semantics as the compiled code on {!Machine}. Its only
    purpose is differential testing: a random program must produce the
    same result through [Compile + Machine] and through this
    interpreter, which is built from the language semantics alone and
    shares no code with the compiler. *)

exception Runtime_error of string
(** Division by zero, out-of-bounds array access, missing return... *)

val run : ?fuel:int -> Minic.Ast.program -> int
(** Executes [main] and returns its result (0 when [main] falls off the
    end without a [return]).
    @raise Runtime_error on runtime faults or fuel exhaustion (default
    fuel: 10 million statement steps). *)
