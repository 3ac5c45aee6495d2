(** Dependency-free data parallelism over OCaml 5 domains.

    [map ~jobs f input] applies [f] to every element of [input] and
    returns the results in input order, distributing elements across
    [jobs] domains (the calling domain counts as one of them). With
    [jobs <= 1], or when the input has fewer than two elements, it is
    exactly [Array.map f input] on the current domain — no domain is
    spawned, so callers can expose a [?jobs] knob whose [1] setting is
    observationally sequential.

    Work is distributed dynamically (an atomic next-index counter), so
    uneven per-element costs — the norm for per-cache-set analyses —
    still balance. [f] must be safe to run concurrently with itself on
    distinct elements; it must not rely on unsynchronised shared
    mutable state.

    If [f] raises, remaining elements are abandoned, all domains are
    joined, and the first exception observed is re-raised (with its
    backtrace) in the calling domain. The [_result] variants instead
    isolate each item's outcome — the graceful-degradation entry
    points the FMM batch layers build on.

    If [Domain.spawn] itself raises partway through fan-out (the
    runtime's domain limit, routine under heavy concurrent service
    load), the same discipline applies: in-flight workers drain,
    every domain that did spawn is joined, and the spawn exception is
    re-raised — no worker ever outlives the call that spawned it. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    how many domains the hardware can usefully run. *)

val inject_spawn_failure_after : int option -> unit
(** Test-only fault injection: [Some k] makes the [k]-th (0-based)
    domain spawn of the next map call raise [Failure], simulating the
    runtime's domain limit being hit mid-fan-out; [None] restores
    normal operation. Pins the join-on-spawn-failure contract above —
    not for production use. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array

val mapi : jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map}, passing each element's index. *)

val mapi_result :
  ?deadline:float ->
  ?chaos:Chaos.Injector.t ->
  jobs:int ->
  (int -> 'a -> 'b) ->
  'a array ->
  ('b, Robust.Pwcet_error.t) Stdlib.result array
(** Crash-isolating {!mapi}: one outcome per item, in input order.
    An item whose [f] raises yields [Error (Worker_crash text)] (with
    the original exception text) without disturbing its siblings; when
    [chaos] is given, items may additionally be killed or stalled at
    site {!Chaos.Site.pool_node} — keyed by item index, so the same
    items fault at every [jobs] value, as typed [Worker_crash]; when
    [deadline] (absolute, {!Robust.Budget.now} scale) has passed before
    an item starts, that item yields [Error (Budget_exhausted _)]
    without running. Outcomes of items that do run are independent of
    [jobs]; never raises and never aborts remaining items — with the
    single exception of a [Domain.spawn] failure during fan-out, which
    (after draining and joining every spawned domain) re-raises: it is
    an environment failure of the call itself, not of any item. *)

val attempt :
  ?deadline:float ->
  ?chaos:Chaos.Injector.t ->
  int ->
  (unit -> 'a) ->
  ('a, Robust.Pwcet_error.t) Stdlib.result
(** One item of {!mapi_result}, run on the calling domain: [attempt i f]
    is exactly the outcome {!mapi_result} records for item [i] — refused
    with [Budget_exhausted] if [deadline] has passed, killed or stalled
    by [chaos] at occurrence [i], [Worker_crash] if [f] raises. For
    schedulers (such as a {!run_dag} node) that run items themselves
    but must degrade them exactly as a map would. *)

val map_result :
  ?deadline:float ->
  ?chaos:Chaos.Injector.t ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, Robust.Pwcet_error.t) Stdlib.result array
(** {!mapi_result} without the index. *)

val reduce_pairs : jobs:int -> ('a -> 'a -> 'a) -> 'a array -> 'a option
(** Balanced pairwise tree reduction ([None] on the empty array):
    adjacent elements are combined layer by layer, an odd leftover
    passes through at the end of its layer. Each layer's combinations
    are independent and fan out across [jobs] domains via {!map}; the
    tree shape is fixed, so for a deterministic [f] the result is
    identical for every [jobs] value. Combination order matters for
    non-associative [f] (e.g. capped convolution): the shape matches a
    sequential pairwise tree, {e not} a left fold. *)

type 'a dag_node = {
  deps : int array;
      (** Indices of the nodes this node consumes. Every index must be
          strictly smaller than the node's own index (the array is given
          in topological order); violations raise [Invalid_argument]. *)
  run : 'a array -> 'a;
      (** Computes the node's value from its dependencies' values, in
          [deps] order. Must be deterministic and safe to run
          concurrently with other nodes' [run]. *)
}

val run_dag :
  ?deadline:float ->
  ?chaos:Chaos.Injector.t ->
  jobs:int ->
  'a dag_node array ->
  ('a, Robust.Pwcet_error.t) Stdlib.result array
(** Deadline-aware work-stealing execution of an irregular task DAG:
    idle domains steal from a shared deque of ready nodes, so uneven
    node costs (a whole-program fixpoint next to a single convolution)
    never leave a runnable node waiting behind a fixed chunk boundary.
    One outcome per node, in node-index order.

    Crash isolation matches {!mapi_result}: a node whose [run] raises
    yields [Error (Worker_crash text)]; with [chaos], nodes may be
    killed or stalled at site {!Chaos.Site.pool_node}, keyed by node
    index so the same nodes fault at every [jobs] value; a node picked
    up after [deadline] (absolute, {!Robust.Budget.now} scale) yields
    [Error (Budget_exhausted _)] without running. A node with a failed
    dependency propagates the first (lowest dependency index) failure
    without running, so errors flow down the DAG deterministically.

    Every outcome of a node that runs is a pure function of its [run]
    and its dependencies' outcomes — the deque only decides {e when} a
    node runs — and with [jobs <= 1] (or fewer than two nodes) the DAG
    executes sequentially in index order on the calling domain. Worker
    domains (at most [jobs - 1]) are spawned on demand, when more nodes
    are ready than running workers can take: a DAG whose root runs alone
    runs it with no idle domain alive. Results
    are therefore bit-identical for every [jobs] value (deadline
    refusals aside, which are timing-dependent by nature). The
    [Domain.spawn]-failure discipline of the header applies. *)

