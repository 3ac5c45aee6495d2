(** Content-addressed, crash-safe on-disk artifact cache.

    Entries are keyed by {!key} — an MD5 over labelled components
    (code version, benchmark identity, cache geometry, mechanism,
    engine flags, …) — and stored one file per entry under
    [root/objects/], wrapped in the {!Codec} envelope.

    Crash safety and integrity, the two contracts everything else
    rests on:

    {ul
    {- {b Writes are atomic}: the entry is written and fsynced to a
       unique temp file under the same root, then [rename(2)]d into
       place. A crash — including [kill -9] — mid-write leaves either
       the old entry or no entry, never a half-written one visible
       under the key.}
    {- {b Reads are verified}: every {!get} re-checks the envelope
       checksum. A failed check {e quarantines} the file (moved under
       [root/quarantine/], preserved for forensics) and reports a miss,
       so the caller transparently recomputes; corruption can cost
       time, never correctness. A version mismatch is a plain miss —
       the entry stays put until overwritten.}}

    Counters ({!stats}) track hits, misses, corruption and version
    mismatches for degradation reports and the [cache stat]
    subcommand.

    One handle may be shared across domains and threads: {!put} uses a
    per-writer unique temp file (atomic counter + pid, created with
    [O_EXCL] so even a name collision can never interleave two
    writers), the rename is atomic and followed by a parent-directory
    fsync (a committed entry survives power loss, not just [kill -9]),
    and the stats counters are lock-protected. Separate processes — a
    daemon plus a CLI run — tolerate each other on the same store for
    the same reasons; last writer of a key wins with an intact entry
    either way. Maintenance operations ({!verify}, {!gc}) tolerate
    concurrent writers and a concurrent gc: entries that vanish
    between listing and removal are treated as already gone, never as
    an error.

    Self-healing under infrastructure faults (real or injected via the
    [chaos] layer): a transient read error is retried once, then the
    entry is quarantined and reported as a miss; a failed {!put} is
    absorbed into the [unavailable] counter (the produced result flows
    on uncached); ENOSPC flips the handle into sticky {!degraded} mode
    in which puts bypass the disk entirely. The store can lose time —
    never a result, and never correctness. *)

type t

val open_store : ?chaos:Chaos.Injector.t -> dir:string -> unit -> t
(** Creates [dir] and its substructure as needed. [chaos] arms the
    injection sites [store.read], [store.read.data], [store.write],
    [store.fsync] and [store.rename] on this handle.
    @raise Sys_error if [dir] cannot be created. *)

val mkdir_p : string -> unit
(** Create a directory and every missing parent ([mkdir -p]); an
    existing one is left alone.
    @raise Unix.Unix_error when a component cannot be created. *)

val root : t -> string

val key : (string * string) list -> string
(** Hex digest of the labelled components, order-sensitive and
    injective in the component list (labels and values are
    length-prefixed before digesting). *)

val put : t -> key:string -> kind:string -> version:int -> string -> unit
(** Atomic write-or-replace of the entry. Never raises on I/O failure:
    a failed write counts as [unavailable] (and, on ENOSPC, degrades
    the handle) — the cache is an investment, not a requirement. *)

val degraded : t -> bool
(** True once an ENOSPC put flipped the handle into degraded mode:
    reads still serve, writes bypass the disk. Sticky for the handle's
    lifetime — a full disk rarely un-fills itself mid-run, and a fresh
    handle probes again. *)

val get : t -> key:string -> kind:string -> version:int -> string option
(** The verified payload, or [None] on a miss, version mismatch, or
    quarantined corruption — never unverified bytes. *)

val quarantine : t -> key:string -> reason:string -> unit
(** Quarantine an entry whose envelope was intact but whose payload
    failed the caller's own (semantic) decoding — same policy as a
    checksum failure, triggered one layer up. Call it only on a payload
    {!get} just returned: the read {!get} counted as a hit is recounted
    as a miss. *)

val journal_path : t -> run_key:string -> string
(** Where the resume journal for a run identified by [run_key] lives
    (under [root/journals/]). *)

type stats = {
  hits : int;
  misses : int;
  corrupt : int;  (** quarantined on read: checksum, payload decode, or persistent read fault *)
  version_mismatch : int;
  puts : int;
  unavailable : int;  (** puts dropped because the store could not take them *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

type verify_report = {
  total : int;
  intact : int;
  quarantined : (string * Robust.Pwcet_error.t) list;
      (** entries that failed the integrity check, now moved to
          quarantine *)
  stale : (string * Robust.Pwcet_error.t) list;
      (** intact entries of another format version, left in place *)
}

type disk_stats = {
  objects : int;
  object_bytes : int;
  quarantined : int;
  journals : int;
}

val disk_stats : t -> disk_stats
(** What is on disk right now — the [cache stat] subcommand. *)

val verify : ?expected:(string * int) list -> t -> verify_report
(** Integrity-check every object ({!Codec.inspect}); corrupt entries
    are quarantined exactly as a {!get} would have. [expected] maps
    kind tags to the format version the current readers write; intact
    entries of a listed kind at another version are reported [stale]. *)

val gc : ?all:bool -> t -> int * int
(** [(files, bytes)] removed. Default: empty the quarantine and drop
    stale temp files. [~all:true] additionally drops every object and
    journal — a full reset. *)
