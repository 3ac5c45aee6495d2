(** Shared, immutable per-(graph, loops, config) analysis context.

    Everything the cache analyses re-derived on every call — reference
    block/set arrays, reverse postorder, reachability, per-loop
    membership bitsets, global and per-loop conflict counts, and the
    per-cache-set index of touching nodes — computed {e once} and
    threaded through {!Chmc.analyze}, {!Slice}, {!Srb_analysis}, the
    FMM computation and the delta engines. The CHMC runs one slice per
    cache set and the fault-miss-map hot path classifies and bounds
    every (cache set, fault count); without the context each of those
    calls was O(whole program) before its own work even started.

    The structure is immutable after {!make} and safe to share across
    domains. *)

module IntSet : Set.S with type elt = int

type loop_info = {
  loop : Cfg.Loop.loop;
  body_size : int;
  members : bool array;  (** node membership bitset, O(1) lookup *)
  conflict_counts : int array;
      (** distinct blocks per cache set referenced inside the body *)
}

type t = {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  config : Cache.Config.t;
  n : int;  (** node count *)
  blocks : int array array;  (** per node, per fetch: memory block *)
  sets : int array array;  (** per node, per fetch: cache set *)
  rpo : int array;  (** reverse postorder from the entry *)
  rpo_pos : int array;  (** node -> position in [rpo]; [max_int] if unreachable *)
  reachable : bool array;
  global_counts : int array;  (** distinct blocks per cache set, whole program *)
  loop_infos : loop_info array;  (** body-size descending (outermost first) *)
  enclosing : int array array;
      (** node -> indices into [loop_infos] of the loops containing it,
          body-size descending *)
  used_sets : IntSet.t;  (** cache sets referenced by a reachable node *)
  touching : int array array;
      (** cache set -> reachable nodes with at least one reference to
          it, ascending node ids *)
}

val make : graph:Cfg.Graph.t -> loops:Cfg.Loop.loop list -> config:Cache.Config.t -> t

val fitting_loop : t -> node:int -> set:int -> assoc:int -> int option
(** Header of the outermost loop containing [node] whose conflict count
    for [set] fits within [assoc] — the per-loop persistence test of the
    CHMC, in O(nesting depth) instead of a per-reference scan of every
    loop body. [None] when no enclosing loop fits (or [assoc <= 0]). *)
