(** The request vocabulary: the defaults, accepted names and range
    checks of the analysis parameters that the command line and the
    daemon protocol share.

    Each parameter is defined here once. The CLI builds its converters
    from these functions and {!Service.Protocol} its decoders, so a
    value one front end accepts the other accepts too, with the same
    message. Each check returns its argument, or a message that names
    the accepted range or names. The cache geometry's syntax and check
    live with the geometry ({!Cache.Config.of_string}); the
    schedulability policy's with the policy
    ({!Sched.Analysis.policy_of_string}). *)

val pfail : float
(** Default per-bit permanent failure probability: 1e-4, the paper's. *)

val target : float
(** Default exceedance target of a reported pWCET: 1e-15, the paper's. *)

val pfail_grid : float list
(** Default pfail axis of sweep and grid: 1e-6, 1e-5, 1e-4, 1e-3. *)

val probability : float -> (float, string) result
(** Finite and strictly inside (0, 1): pfail and every exceedance
    target. *)

val positive : float -> (float, string) result
(** Finite and above 0. *)

val rate : float -> (float, string) result
(** Finite, inside \[0, 1). *)

val at_least : int -> int -> (int, string) result
(** [at_least n v]: [v] when [v >= n]. A request's [timeout_ms] is at
    least 1, its [delay_ms] at least 0. *)

val lookup :
  what:string -> names:string list -> (string -> 'a option) -> string -> ('a, string) result
(** [lookup ~what ~names of_string s] is [of_string s], or an error
    naming [what] and the accepted [names]. *)

val mechanism : string -> (Mechanism.t, string) result
(** none, srb or rw (and {!Mechanism.of_string}'s spelled-out forms). *)

val mechanisms : string -> (Mechanism.t list, string) result
(** One {!mechanism}, or ["all"] for {!Mechanism.all}. *)

val engine : string -> ([ `Path | `Ilp ], string) result
(** A bounding engine by its {!Estimator.engine_tag}: path or ilp. *)
