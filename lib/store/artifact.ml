module E = Robust.Pwcet_error

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  version_mismatch : int;
  puts : int;
  unavailable : int;
}

type t = {
  root : string;
  lock : Mutex.t;  (** guards [s] and [degraded]; everything else is immutable or on-disk *)
  mutable s : stats;
  mutable degraded : bool;
      (** sticky: set on ENOSPC, after which puts stop touching disk *)
  tmp_counter : int Atomic.t;
  chaos : Chaos.Injector.t option;
}

let zero_stats =
  { hits = 0; misses = 0; corrupt = 0; version_mismatch = 0; puts = 0; unavailable = 0 }

(* Stats are touched from every worker domain of a concurrent daemon
   sharing one handle; a plain [t.s <- ...] read-modify-write would
   lose increments. *)
let bump t f =
  Mutex.lock t.lock;
  t.s <- f t.s;
  Mutex.unlock t.lock

let mkdir_p dir =
  let rec make d =
    if not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let objects_dir t = Filename.concat t.root "objects"
let quarantine_dir t = Filename.concat t.root "quarantine"
let journals_dir t = Filename.concat t.root "journals"
let tmp_dir t = Filename.concat t.root "tmp"

let open_store ?chaos ~dir () =
  let t =
    { root = dir;
      lock = Mutex.create ();
      s = zero_stats;
      degraded = false;
      tmp_counter = Atomic.make 0;
      chaos }
  in
  mkdir_p (objects_dir t);
  mkdir_p (quarantine_dir t);
  mkdir_p (journals_dir t);
  mkdir_p (tmp_dir t);
  t

let root t = t.root

let key components =
  let w = Wire.writer () in
  Wire.put_int w (List.length components);
  List.iter
    (fun (label, value) ->
      Wire.put_string w label;
      Wire.put_string w value)
    components;
  Digest.to_hex (Digest.string (Wire.contents w))

(* objects/<k2>/<key>: two-level fan-out keeps directory listings sane
   on large stores. *)
let object_path t ~key =
  let prefix = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  Filename.concat (Filename.concat (objects_dir t) prefix) key

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* [End_of_file] if a concurrent writer replaced the entry with
           a shorter one between length query and read: a miss, not a
           crash — the caller recomputes. *)
        try Some (really_input_string ic (in_channel_length ic)) with End_of_file -> None)

(* Durability for the rename itself: the parent directory's metadata
   (the new directory entry) must reach disk too, or a power loss
   shortly after a "committed" put can roll the entry back even though
   the data blocks survived.  kill -9 alone never needed this — the
   page cache survives a process death — but a daemon promising
   committed results to remote clients must survive the machine dying,
   not just the process.  Directory fsync is optional on some
   filesystems (EINVAL/EBADF there), so failures are ignored: the
   atomicity guarantee never depends on it, only power-loss
   durability, and only where the OS supports it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Atomic durable write: unique temp file in the same tree (same
   filesystem, so rename is atomic), contents fsynced before the
   rename, parent directory fsynced after it. A kill -9 at any
   instant leaves either the previous entry or no entry under [path] —
   never a torn one.

   The temp name must be unique per {e writer}, not per handle: the
   counter is atomic (daemon worker domains share one handle — a
   plain [mutable] here raced, two writers could draw the same counter
   value) and the pid distinguishes processes (a daemon plus a CLI run
   writing the same key).  [O_EXCL] turns any residual collision —
   e.g. a recycled pid colliding with a crashed process's leftover
   temp file — into a retry with a fresh name instead of two writers
   silently interleaving into one [O_TRUNC]-ed file and renaming a
   torn blob into place. *)
let write_atomic t ~path data =
  let rec create_tmp attempts =
    let tmp =
      Filename.concat (tmp_dir t)
        (Printf.sprintf "%d.%d.%s" (Unix.getpid ())
           (Atomic.fetch_and_add t.tmp_counter 1)
           (Filename.basename path))
    in
    match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | fd -> (tmp, fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when attempts > 0 ->
      create_tmp (attempts - 1)
  in
  let tmp, fd = create_tmp 1024 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let bytes = Bytes.of_string data in
      (* An injected [`Partial] leaves a torn temp file and raises: the
         tear can never reach [path] — only the rename publishes — and
         the temp is [gc]'s to reap. A real short write on a regular
         file means the disk filled mid-write; same containment. *)
      let want =
        match Chaos.Injector.tap_io t.chaos ~site:Chaos.Site.store_write ~len:(Bytes.length bytes) with
        | `Full -> Bytes.length bytes
        | `Partial n ->
          ignore (Unix.write fd bytes 0 n);
          raise (Unix.Unix_error (Unix.EIO, Chaos.Site.store_write, "chaos short write"))
      in
      let n = Unix.write fd bytes 0 want in
      if n <> want then failwith "Artifact.put: short write";
      Chaos.Injector.tap t.chaos ~site:Chaos.Site.store_fsync;
      Unix.fsync fd);
  mkdir_p (Filename.dirname path);
  Chaos.Injector.tap t.chaos ~site:Chaos.Site.store_rename;
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* A put is a cache investment, never a correctness requirement: any
   I/O failure is absorbed into the [unavailable] counter and the
   computation that produced the payload proceeds with its result.
   ENOSPC flips the handle into sticky degraded mode — once the disk is
   full, later puts skip straight to the counter instead of grinding
   through a doomed write-fsync-rename each time. *)
let put t ~key ~kind ~version payload =
  let skip =
    Mutex.lock t.lock;
    let d = t.degraded in
    if d then t.s <- { t.s with unavailable = t.s.unavailable + 1 };
    Mutex.unlock t.lock;
    d
  in
  if not skip then
    match write_atomic t ~path:(object_path t ~key) (Codec.encode ~kind ~version payload) with
    | () -> bump t (fun s -> { s with puts = s.puts + 1 })
    | exception ((Unix.Unix_error _ | Sys_error _ | Failure _) as e) ->
      let full =
        match e with Unix.Unix_error (Unix.ENOSPC, _, _) -> true | _ -> false
      in
      Mutex.lock t.lock;
      if full then t.degraded <- true;
      t.s <- { t.s with unavailable = t.s.unavailable + 1 };
      Mutex.unlock t.lock

let degraded t =
  Mutex.lock t.lock;
  let d = t.degraded in
  Mutex.unlock t.lock;
  d

let quarantine_entry t ~key =
  let path = object_path t ~key in
  if Sys.file_exists path then
    try Sys.rename path (Filename.concat (quarantine_dir t) key)
    with Sys_error _ -> (try Sys.remove path with Sys_error _ -> ())

let get t ~key ~kind ~version =
  let path = object_path t ~key in
  (* Transient read faults (injected or real EIO) are retried once; a
     second consecutive fault quarantines the entry — the media under
     it is presumed bad — and reports a miss, so the caller
     transparently recomputes. *)
  let attempt () =
    Chaos.Injector.tap t.chaos ~site:Chaos.Site.store_read;
    read_file path
  in
  let read =
    match attempt () with
    | r -> Ok r
    | exception Unix.Unix_error _ -> (
      match attempt () with
      | r -> Ok r
      | exception Unix.Unix_error _ -> Error ())
  in
  match read with
  | Error () ->
    quarantine_entry t ~key;
    bump t (fun s -> { s with misses = s.misses + 1; corrupt = s.corrupt + 1 });
    None
  | Ok None ->
    bump t (fun s -> { s with misses = s.misses + 1 });
    None
  | Ok (Some data) -> (
    (* Readback bit-flips land *before* the envelope check, exactly
       like silent media corruption — the decode below must catch
       them. *)
    let data = Chaos.Injector.tap_data t.chaos ~site:Chaos.Site.store_read_data data in
    match Codec.decode ~kind ~version data with
    | Ok payload ->
      bump t (fun s -> { s with hits = s.hits + 1 });
      Some payload
    | Error (E.Version_mismatch _) ->
      bump t (fun s ->
          { s with misses = s.misses + 1; version_mismatch = s.version_mismatch + 1 });
      None
    | Error _ ->
      quarantine_entry t ~key;
      bump t (fun s -> { s with misses = s.misses + 1; corrupt = s.corrupt + 1 });
      None)

(* The read [get] counted as a hit served nothing the caller could use:
   recount it as a miss. *)
let quarantine t ~key ~reason:_ =
  quarantine_entry t ~key;
  bump t (fun s -> { s with hits = s.hits - 1; misses = s.misses + 1; corrupt = s.corrupt + 1 })

let journal_path t ~run_key = Filename.concat (journals_dir t) (run_key ^ ".journal")

let stats t = t.s

let pp_stats fmt s =
  let looked_up = s.hits + s.misses in
  Format.fprintf fmt "%d hits / %d lookups (%.0f%%), %d writes" s.hits looked_up
    (if looked_up = 0 then 0.0 else 100.0 *. float_of_int s.hits /. float_of_int looked_up)
    s.puts;
  if s.corrupt > 0 then Format.fprintf fmt ", %d corrupt (quarantined)" s.corrupt;
  if s.version_mismatch > 0 then Format.fprintf fmt ", %d version-mismatched" s.version_mismatch;
  if s.unavailable > 0 then Format.fprintf fmt ", %d writes dropped (store unavailable)" s.unavailable

type verify_report = {
  total : int;
  intact : int;
  quarantined : (string * E.t) list;
  stale : (string * E.t) list;
}

let list_dir dir = try Array.to_list (Sys.readdir dir) with Sys_error _ -> []

(* Directory entries observed by a walk can vanish before they are
   stat'ed — another process's gc, or a concurrent writer's rename —
   so existence checks must treat "gone" as an answer, not an error. *)
let is_directory path = try Sys.is_directory path with Sys_error _ -> false

let iter_objects t f =
  List.iter
    (fun prefix ->
      let sub = Filename.concat (objects_dir t) prefix in
      if is_directory sub then List.iter (fun name -> f name) (List.sort compare (list_dir sub)))
    (List.sort compare (list_dir (objects_dir t)))

type disk_stats = {
  objects : int;
  object_bytes : int;
  quarantined : int;
  journals : int;
}

let disk_stats t =
  let objects = ref 0 and object_bytes = ref 0 in
  iter_objects t (fun key ->
      incr objects;
      object_bytes :=
        !object_bytes
        + (try (Unix.stat (object_path t ~key)).Unix.st_size with Unix.Unix_error _ -> 0));
  { objects = !objects;
    object_bytes = !object_bytes;
    quarantined = List.length (list_dir (quarantine_dir t));
    journals = List.length (list_dir (journals_dir t)) }

let verify ?(expected = []) t =
  let total = ref 0 and intact = ref 0 in
  let quarantined = ref [] and stale = ref [] in
  iter_objects t (fun key ->
      incr total;
      match read_file (object_path t ~key) with
      | None -> ()
      | Some data -> (
        match Codec.inspect data with
        | Ok (kind, version, _) -> (
          incr intact;
          match List.assoc_opt kind expected with
          | Some v when v <> version ->
            stale :=
              ( key,
                E.Version_mismatch
                  (Printf.sprintf "kind %S at version %d, readers expect %d" kind version v) )
              :: !stale
          | _ -> ())
        | Error e ->
          quarantine_entry t ~key;
          bump t (fun s -> { s with corrupt = s.corrupt + 1 });
          quarantined := (key, e) :: !quarantined));
  { total = !total; intact = !intact; quarantined = List.rev !quarantined;
    stale = List.rev !stale }

(* Concurrent-removal tolerant: a file another process (a racing gc, a
   writer renaming its temp into place) already removed between listing
   and unlink is simply not counted — ENOENT is a success here, the
   file is gone either way. *)
let remove_all dir =
  List.fold_left
    (fun (n, bytes) name ->
      let path = Filename.concat dir name in
      if is_directory path then (n, bytes)
      else begin
        let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
        match Sys.remove path with
        | () -> (n + 1, bytes + size)
        | exception Sys_error _ -> (n, bytes)
      end)
    (0, 0) (list_dir dir)

let gc ?(all = false) t =
  let add (a, b) (c, d) = (a + c, b + d) in
  let removed = ref (remove_all (quarantine_dir t)) in
  removed := add !removed (remove_all (tmp_dir t));
  if all then begin
    iter_objects t (fun key ->
        let path = object_path t ~key in
        let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
        match Sys.remove path with
        | () -> removed := add !removed (1, size)
        | exception Sys_error _ -> ());
    removed := add !removed (remove_all (journals_dir t))
  end;
  !removed
