(* Tests for the crash-safe artifact store: wire codec round-trips,
   envelope integrity, corruption fuzzing (bit flips, truncations,
   extensions — the store must never return wrong bytes, only misses),
   journal torn-tail recovery, and the end-to-end contract that a
   warm-cache estimate is bit-identical to a cold one even after every
   stored object has been vandalised. All randomness is seeded. *)

module Wire = Store.Wire
module Codec = Store.Codec
module Artifact = Store.Artifact
module Journal = Store.Journal
module E = Robust.Pwcet_error
module M = Pwcet.Mechanism
module D = Prob.Dist

let tmp_root = Filename.concat (Filename.get_temp_dir_name ()) "pwcet_store_test"

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir = Filename.concat tmp_root (Printf.sprintf "case%d.%d" (Unix.getpid ()) !counter) in
    let rec rm path =
      if Sys.file_exists path then
        if Sys.is_directory path then begin
          Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
    in
    rm dir;
    dir

(* --- wire primitives -------------------------------------------------------- *)

let test_wire_roundtrip () =
  let state = Random.State.make [| 11 |] in
  for _ = 1 to 50 do
    let ints = Array.init (Random.State.int state 20) (fun _ -> Random.State.full_int state max_int - (max_int / 2)) in
    let floats = Array.init (Random.State.int state 20) (fun _ -> Random.State.float state 1e9 -. 5e8) in
    let str = String.init (Random.State.int state 40) (fun _ -> Char.chr (Random.State.int state 256)) in
    let w = Wire.writer () in
    Wire.put_string w str;
    Wire.put_int_array w ints;
    Wire.put_float_array w floats;
    Wire.put_int w (-42);
    Wire.put_float w 0.1;
    match
      Wire.decode (Wire.contents w) (fun r ->
          let str' = Wire.get_string r in
          let ints' = Wire.get_int_array r in
          let floats' = Wire.get_float_array r in
          let i = Wire.get_int r in
          let f = Wire.get_float r in
          (str', ints', floats', i, f))
    with
    | Ok (str', ints', floats', i, f) ->
      Alcotest.(check string) "string" str str';
      Alcotest.(check (array int)) "ints" ints ints';
      Alcotest.(check (array (float 0.))) "floats" floats floats';
      Alcotest.(check int) "int" (-42) i;
      Alcotest.(check (float 0.)) "float" 0.1 f
    | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  done

let test_wire_rejects_malformed () =
  let w = Wire.writer () in
  Wire.put_int_array w [| 1; 2; 3 |];
  let data = Wire.contents w in
  (* Truncations at every length, trailing garbage, and an inflated
     element count must all surface as Error, never as an exception or
     as garbage data. *)
  for len = 0 to String.length data - 1 do
    match Wire.decode (String.sub data 0 len) Wire.get_int_array with
    | Error _ -> ()
    | Ok arr ->
      if len > 0 then Alcotest.failf "truncation to %d yielded %d elems" len (Array.length arr)
  done;
  (match Wire.decode (data ^ "x") Wire.get_int_array with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  let inflated = Bytes.of_string data in
  Bytes.set inflated 0 '\xff';
  match Wire.decode (Bytes.to_string inflated) Wire.get_int_array with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inflated count accepted"

(* --- envelope --------------------------------------------------------------- *)

let test_codec_roundtrip_and_version () =
  let payload = "some payload bytes \x00\xff with binary" in
  let data = Codec.encode ~kind:"TEST" ~version:3 payload in
  (match Codec.decode ~kind:"TEST" ~version:3 data with
  | Ok p -> Alcotest.(check string) "payload" payload p
  | Error e -> Alcotest.failf "decode failed: %s" (E.to_string e));
  (match Codec.decode ~kind:"TEST" ~version:4 data with
  | Error (E.Version_mismatch _) -> ()
  | _ -> Alcotest.fail "other version must be Version_mismatch");
  (match Codec.decode ~kind:"OTHR" ~version:3 data with
  | Error (E.Version_mismatch _) -> ()
  | _ -> Alcotest.fail "other kind must be Version_mismatch");
  match Codec.inspect data with
  | Ok (kind, version, p) ->
    Alcotest.(check string) "kind" "TEST" kind;
    Alcotest.(check int) "version" 3 version;
    Alcotest.(check string) "inspect payload" payload p
  | Error e -> Alcotest.failf "inspect failed: %s" (E.to_string e)

let test_codec_every_bit_flip_is_corrupt () =
  (* Flip every single bit of an encoded artifact, including the
     version field: each one must read as Corrupt_artifact (the digest
     covers the whole envelope; a flipped version byte must not
     masquerade as a plausible old version). This alone injects
     8 * |data| > 1000 faults. *)
  let payload = String.init 97 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let data = Codec.encode ~kind:"FUZZ" ~version:1 payload in
  let faults = ref 0 in
  String.iteri
    (fun i _ ->
      for bit = 0 to 7 do
        incr faults;
        let mutated = Bytes.of_string data in
        Bytes.set mutated i (Char.chr (Char.code data.[i] lxor (1 lsl bit)));
        match Codec.decode ~kind:"FUZZ" ~version:1 (Bytes.to_string mutated) with
        | Error (E.Corrupt_artifact _) -> ()
        | Error e ->
          Alcotest.failf "byte %d bit %d: expected Corrupt_artifact, got %s" i bit
            (E.to_string e)
        | Ok p ->
          if p <> payload then
            Alcotest.failf "byte %d bit %d: silently wrong payload" i bit
          else Alcotest.failf "byte %d bit %d: flip accepted" i bit
      done)
    data;
  Alcotest.(check bool) ">= 1000 faults" true (!faults >= 1000)

(* --- artifact store --------------------------------------------------------- *)

let test_artifact_put_get () =
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let key = Artifact.key [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check (option string)) "cold miss" None (Artifact.get st ~key ~kind:"TEST" ~version:1);
  Artifact.put st ~key ~kind:"TEST" ~version:1 "hello";
  Alcotest.(check (option string)) "hit" (Some "hello")
    (Artifact.get st ~key ~kind:"TEST" ~version:1);
  Alcotest.(check (option string)) "version bump misses" None
    (Artifact.get st ~key ~kind:"TEST" ~version:2);
  let s = Artifact.stats st in
  Alcotest.(check int) "hits" 1 s.Artifact.hits;
  Alcotest.(check int) "misses" 2 s.Artifact.misses;
  Alcotest.(check int) "version_mismatch" 1 s.Artifact.version_mismatch;
  Alcotest.(check int) "puts" 1 s.Artifact.puts;
  (* Key sensitivity: permuted components and boundary-shifted values
     are different keys. *)
  Alcotest.(check bool) "order-sensitive" true
    (Artifact.key [ ("b", "2"); ("a", "1") ] <> key);
  Alcotest.(check bool) "boundary-sensitive" true
    (Artifact.key [ ("a", "12"); ("b", "") ] <> Artifact.key [ ("a", "1"); ("b", "2") ])

(* A read that passes the envelope check but whose payload the caller
   then quarantines served nothing: it counts as a miss, not a hit. *)
let test_artifact_quarantine_counts_miss () =
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let key = Artifact.key [ ("semantic", "reject") ] in
  Artifact.put st ~key ~kind:"TEST" ~version:1 "not a valid payload";
  Alcotest.(check (option string)) "envelope intact" (Some "not a valid payload")
    (Artifact.get st ~key ~kind:"TEST" ~version:1);
  Artifact.quarantine st ~key ~reason:"payload rejected";
  let s = Artifact.stats st in
  Alcotest.(check int) "hits" 0 s.Artifact.hits;
  Alcotest.(check int) "misses" 1 s.Artifact.misses;
  Alcotest.(check int) "corrupt" 1 s.Artifact.corrupt;
  Alcotest.(check (option string)) "quarantined away" None
    (Artifact.get st ~key ~kind:"TEST" ~version:1);
  Alcotest.(check string) "stats line" "0 hits / 2 lookups (0%), 1 writes, 1 corrupt (quarantined)"
    (Format.asprintf "%a" Artifact.pp_stats (Artifact.stats st))

let object_file st ~key =
  (* The store's fan-out layout is objects/<first-2>/<key>. *)
  Filename.concat
    (Filename.concat (Filename.concat (Artifact.root st) "objects") (String.sub key 0 2))
    key

let test_artifact_corruption_fuzz () =
  (* >= 1000 injected faults against a stored object: random byte
     mutations, truncations and extensions. Every single one must read
     back as a miss with the file quarantined — never as wrong bytes. *)
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let key = Artifact.key [ ("fuzz", "object") ] in
  let payload = String.init 256 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let state = Random.State.make [| 23 |] in
  let faults = ref 0 in
  let corrupted = ref 0 in
  Artifact.put st ~key ~kind:"TEST" ~version:1 payload;
  let pristine = In_channel.with_open_bin (object_file st ~key) In_channel.input_all in
  for _ = 1 to 1100 do
    incr faults;
    let mutated =
      match Random.State.int state 3 with
      | 0 ->
        (* random byte mutation *)
        let b = Bytes.of_string pristine in
        let i = Random.State.int state (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int state 255)));
        Bytes.to_string b
      | 1 -> String.sub pristine 0 (Random.State.int state (String.length pristine))
      | _ -> pristine ^ String.init (1 + Random.State.int state 16) (fun _ -> Char.chr (Random.State.int state 256))
    in
    Out_channel.with_open_bin (object_file st ~key) (fun oc -> Out_channel.output_string oc mutated);
    (match Artifact.get st ~key ~kind:"TEST" ~version:1 with
    | None -> incr corrupted
    | Some p ->
      if p <> payload then Alcotest.fail "corrupted object read back as wrong bytes"
      else Alcotest.fail "corrupted object passed the integrity check");
    (* quarantined, so the slot is now empty; restore for the next round *)
    Alcotest.(check bool) "quarantined away" false (Sys.file_exists (object_file st ~key));
    Out_channel.with_open_bin (object_file st ~key) (fun oc -> Out_channel.output_string oc pristine)
  done;
  Alcotest.(check int) "every fault detected" !faults !corrupted;
  Alcotest.(check bool) ">= 1000 faults" true (!faults >= 1000);
  (* The pristine copy still reads fine, and gc clears the quarantine. *)
  Alcotest.(check (option string)) "pristine survives" (Some payload)
    (Artifact.get st ~key ~kind:"TEST" ~version:1);
  let files, _bytes = Artifact.gc st in
  Alcotest.(check bool) "gc removed the quarantine" true (files >= 1)

(* Regression for the concurrent-writer temp-file race: several domains
   hammer put/get on a small overlapping key set through ONE shared
   handle.  Pre-fix the per-handle temp counter was a plain mutable
   int, so two domains could draw the same value, open the same temp
   path ([O_TRUNC], no [O_EXCL]), interleave their writes and rename a
   torn blob into place — surfacing as quarantined corruption, a
   failed rename, or a short read.  Post-fix every read must be
   bit-identical to exactly one writer's payload and nothing is ever
   quarantined. *)
let test_artifact_concurrent_writers () =
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let domains = 6 and rounds = 150 and nkeys = 3 in
  let payload ~writer ~round ~k =
    (* Distinct payload per (writer, round), sized like a real table
       blob so interleaved writes have room to tear. *)
    let body = Printf.sprintf "writer=%d round=%d key=%d." writer round k in
    body ^ String.init 4096 (fun i -> Char.chr ((writer + (i * 131)) land 0xff))
  in
  let keys = Array.init nkeys (fun k -> Artifact.key [ ("stress", string_of_int k) ]) in
  let errors = Atomic.make [] in
  let record msg =
    let rec push () =
      let old = Atomic.get errors in
      if not (Atomic.compare_and_set errors old (msg :: old)) then push ()
    in
    push ()
  in
  let worker writer () =
    try
      for round = 1 to rounds do
        let k = (writer + round) mod nkeys in
        let key = keys.(k) in
        Artifact.put st ~key ~kind:"TEST" ~version:1 (payload ~writer ~round ~k);
        match Artifact.get st ~key ~kind:"TEST" ~version:1 with
        | None -> record (Printf.sprintf "writer %d round %d: miss/quarantine" writer round)
        | Some data -> (
          (* Whatever won the race, the bytes must be one writer's
             payload in full — regenerate it from the tag and compare. *)
          match Scanf.sscanf_opt data "writer=%d round=%d key=%d." (fun w r k' -> (w, r, k')) with
          | Some (w, r, k') when k' = k && String.equal data (payload ~writer:w ~round:r ~k) ->
            ()
          | _ -> record (Printf.sprintf "writer %d round %d: torn payload" writer round))
      done
    with e -> record (Printf.sprintf "writer %d: exception %s" writer (Printexc.to_string e))
  in
  let spawned = Array.init domains (fun w -> Domain.spawn (worker w)) in
  Array.iter Domain.join spawned;
  (match Atomic.get errors with
  | [] -> ()
  | msgs -> Alcotest.failf "%d data race(s): %s" (List.length msgs) (List.hd msgs));
  let s = Artifact.stats st in
  Alcotest.(check int) "zero quarantines" 0 s.Artifact.corrupt;
  Alcotest.(check int) "quarantine dir empty" 0 (Artifact.disk_stats st).Artifact.quarantined;
  Alcotest.(check int) "every put accounted" (domains * rounds) s.Artifact.puts

(* Same contract, separate handles: every writer opens its OWN handle
   on the same directory — a daemon's per-domain handles, or a daemon
   plus a CLI run.  All counters then start at 0 and march in
   lockstep, so pre-fix ([O_TRUNC], no [O_EXCL]) the writers collide
   on the same temp path nearly every round: one truncates the other's
   fully-written temp file mid-commit and a torn blob gets renamed
   into place (or the loser's rename fails outright).  [O_EXCL] plus
   the retry turns every collision into a fresh name. *)
let test_artifact_concurrent_handles () =
  let dir = fresh_dir () in
  let domains = 4 and rounds = 200 in
  (* One shared key: temp names embed the object basename, so a single
     key keeps all writers on a collision course. *)
  let key = Artifact.key [ ("stress", "shared") ] in
  let payload ~writer ~round =
    let body = Printf.sprintf "writer=%d round=%d." writer round in
    body ^ String.init 8192 (fun i -> Char.chr ((writer + (i * 173)) land 0xff))
  in
  let errors = Atomic.make [] in
  let record msg =
    let rec push () =
      let old = Atomic.get errors in
      if not (Atomic.compare_and_set errors old (msg :: old)) then push ()
    in
    push ()
  in
  let worker writer () =
    let st = Artifact.open_store ~dir () in
    try
      for round = 1 to rounds do
        Artifact.put st ~key ~kind:"TEST" ~version:1 (payload ~writer ~round);
        match Artifact.get st ~key ~kind:"TEST" ~version:1 with
        | None -> record (Printf.sprintf "writer %d round %d: miss/quarantine" writer round)
        | Some data -> (
          match Scanf.sscanf_opt data "writer=%d round=%d." (fun w r -> (w, r)) with
          | Some (w, r) when String.equal data (payload ~writer:w ~round:r) -> ()
          | _ -> record (Printf.sprintf "writer %d round %d: torn payload" writer round))
      done;
      let s = Artifact.stats st in
      if s.Artifact.corrupt > 0 then
        record (Printf.sprintf "writer %d: %d quarantined read(s)" writer s.Artifact.corrupt)
    with e -> record (Printf.sprintf "writer %d: exception %s" writer (Printexc.to_string e))
  in
  let spawned = Array.init domains (fun w -> Domain.spawn (worker w)) in
  Array.iter Domain.join spawned;
  (match Atomic.get errors with
  | [] -> ()
  | msgs -> Alcotest.failf "%d data race(s): %s" (List.length msgs) (List.hd msgs));
  let audit = Artifact.open_store ~dir () in
  Alcotest.(check int) "quarantine dir empty" 0 (Artifact.disk_stats audit).Artifact.quarantined

let test_artifact_verify_quarantines () =
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let keys =
    List.init 5 (fun i ->
        let key = Artifact.key [ ("n", string_of_int i) ] in
        Artifact.put st ~key ~kind:"TEST" ~version:1 (String.make 20 (Char.chr (65 + i)));
        key)
  in
  (* vandalise two of them, leave one stale at an old version *)
  List.iteri
    (fun i key ->
      if i < 2 then
        Out_channel.with_open_bin (object_file st ~key) (fun oc ->
            Out_channel.output_string oc "garbage"))
    keys;
  let stale_key = Artifact.key [ ("stale", "x") ] in
  Artifact.put st ~key:stale_key ~kind:"TEST" ~version:0 "old";
  let r = Artifact.verify ~expected:[ ("TEST", 1) ] st in
  Alcotest.(check int) "total" 6 r.Artifact.total;
  Alcotest.(check int) "intact" 4 r.Artifact.intact;
  Alcotest.(check int) "quarantined" 2 (List.length r.Artifact.quarantined);
  Alcotest.(check int) "stale" 1 (List.length r.Artifact.stale);
  (* verify already moved the corrupt files: a second pass is clean *)
  let r2 = Artifact.verify ~expected:[ ("TEST", 1) ] st in
  Alcotest.(check int) "second pass total" 4 r2.Artifact.total;
  Alcotest.(check int) "second pass quarantined" 0 (List.length r2.Artifact.quarantined)

(* --- journal ---------------------------------------------------------------- *)

let test_journal_roundtrip () =
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let path = Artifact.journal_path st ~run_key:"run1" in
  let w = Journal.create ~path ~run_key:"run1" () in
  let units = [ "alpha"; String.make 500 'b'; "\x00binary\xff"; "" ] in
  List.iter (Journal.append w) units;
  Journal.close w;
  Alcotest.(check (list string)) "load" units (Journal.load ~path ~run_key:"run1");
  Alcotest.(check (list string)) "other run key ignored" []
    (Journal.load ~path ~run_key:"run2");
  let w2, replayed = Journal.resume ~path ~run_key:"run1" () in
  Alcotest.(check (list string)) "resume replays" units replayed;
  Journal.append w2 "epsilon";
  Journal.close w2;
  Alcotest.(check (list string)) "append after resume" (units @ [ "epsilon" ])
    (Journal.load ~path ~run_key:"run1")

let test_journal_torn_tail_fuzz () =
  (* Truncate the journal at every possible byte length and flip random
     bits in the tail: the loaded units must always be a prefix of the
     appended ones — a torn or vandalised journal can lose work, never
     invent or alter it. *)
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let path = Artifact.journal_path st ~run_key:"fuzz" in
  let w = Journal.create ~path ~run_key:"fuzz" () in
  let units = List.init 8 (fun i -> Printf.sprintf "unit-%d-%s" i (String.make (i * 7) 'x')) in
  List.iter (Journal.append w) units;
  Journal.close w;
  let pristine = In_channel.with_open_bin path In_channel.input_all in
  let is_prefix loaded =
    let rec go = function
      | [], _ -> true
      | _ :: _, [] -> false
      | l :: ls, u :: us -> l = u && go (ls, us)
    in
    go (loaded, units)
  in
  let faults = ref 0 in
  for len = 0 to String.length pristine - 1 do
    incr faults;
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub pristine 0 len));
    if not (is_prefix (Journal.load ~path ~run_key:"fuzz")) then
      Alcotest.failf "truncation to %d bytes produced a non-prefix" len
  done;
  let state = Random.State.make [| 31 |] in
  for _ = 1 to 300 do
    incr faults;
    let b = Bytes.of_string pristine in
    let i = Random.State.int state (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int state 8)));
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
    if not (is_prefix (Journal.load ~path ~run_key:"fuzz")) then
      Alcotest.fail "bit flip produced a non-prefix"
  done;
  Alcotest.(check bool) "covered both fault families" true (!faults >= 300);
  (* Torn-append recovery: resume after garbage was appended must drop
     the garbage, truncate, and leave the file appendable. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc pristine);
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\xff\xff\xff\xff\xff\xff\xff\x7ftorn trailing record";
  close_out oc;
  let w2, replayed = Journal.resume ~path ~run_key:"fuzz" () in
  Alcotest.(check (list string)) "torn tail dropped" units replayed;
  Journal.append w2 "after-recovery";
  Journal.close w2;
  Alcotest.(check (list string)) "clean append after recovery" (units @ [ "after-recovery" ])
    (Journal.load ~path ~run_key:"fuzz")

(* --- domain codecs ---------------------------------------------------------- *)

let task_of name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  compiled.Minic.Compile.program

let test_dist_wire_roundtrip () =
  let program = task_of "crc" in
  let config = Cache.Config.paper_default in
  let task = Pwcet.Estimator.prepare ~program ~config () in
  let est = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.No_protection () in
  let dist = (Pwcet.Estimator.penalty est) in
  match D.of_wire (D.to_wire dist) with
  | Error msg -> Alcotest.failf "of_wire failed: %s" msg
  | Ok dist' ->
    Alcotest.(check (list (pair int (float 0.)))) "support" (D.support dist) (D.support dist');
    (* derived tail values must match bit for bit, not just approximately *)
    List.iter
      (fun target ->
        Alcotest.(check int)
          (Printf.sprintf "quantile %g" target)
          (D.quantile dist ~target) (D.quantile dist' ~target))
      [ 1e-9; 1e-12; 1e-15 ];
    Alcotest.(check string) "re-encoding is stable" (D.to_wire dist) (D.to_wire dist')

let test_dist_wire_rejects_invalid () =
  let encode pairs =
    let w = Wire.writer () in
    Wire.put_int w (List.length pairs);
    List.iter
      (fun (x, p) ->
        Wire.put_int w x;
        Wire.put_float w p)
      pairs;
    Wire.contents w
  in
  List.iter
    (fun (label, pairs) ->
      match D.of_wire (encode pairs) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" label)
    [ ("negative penalty", [ (-1, 0.5); (2, 0.5) ])
    ; ("non-ascending", [ (3, 0.5); (2, 0.5) ])
    ; ("duplicate", [ (2, 0.5); (2, 0.5) ])
    ; ("zero probability", [ (1, 0.0) ])
    ; ("negative zero probability", [ (1, -0.0); (2, 1.0) ])
    ; ("negative probability", [ (1, -0.25); (2, 1.0) ])
    ; ("nan probability", [ (1, Float.nan) ])
    ; ("mass above one", [ (1, 0.7); (2, 0.7) ])
    ]

(* The convolution kernels keep a product that underflowed to +0.0 as a
   point; adpcm without protection at 32x4x16 and pfail 1e-6 has
   thousands. Its wire form must decode, and re-encode to the same
   bytes. *)
let zero_point_law () =
  let config = Cache.Config.make ~sets:32 ~ways:4 ~line_bytes:16 () in
  let task = Pwcet.Estimator.prepare ~program:(task_of "adpcm") ~config () in
  (task, Pwcet.Estimator.estimate task ~pfail:1e-6 ~mechanism:M.No_protection ())

let test_dist_wire_zero_points () =
  let _, est = zero_point_law () in
  let dist = Pwcet.Estimator.penalty est in
  let zeros = List.filter (fun (_, p) -> Int64.bits_of_float p = 0L) (D.support dist) in
  Alcotest.(check bool) "law has +0.0 points" true (zeros <> []);
  match D.of_wire (D.to_wire dist) with
  | Error msg -> Alcotest.failf "of_wire failed: %s" msg
  | Ok dist' ->
    Alcotest.(check string) "byte-identical" (D.to_wire dist) (D.to_wire dist');
    Alcotest.(check (float 0.)) "total mass" (D.total_mass dist) (D.total_mass dist')

(* A point count whose byte length [8 + 16 * n] wraps around to the
   payload's real length must come back as [Error], not reach
   [Array.make]: n = 2^59 + 1 makes 16 * n wrap to 16, so a 24-byte
   payload passed the old length check. *)
let test_dist_wire_rejects_wrapped_length () =
  let n = (1 lsl 59) + 1 in
  Alcotest.(check int) "byte length wraps" 24 (8 + (16 * n));
  let b = Bytes.make 24 '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  match D.of_wire (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrapped length accepted"
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

let test_fmm_wire_roundtrip () =
  let program = task_of "bs" in
  let config = Cache.Config.paper_default in
  let task = Pwcet.Estimator.prepare ~program ~config () in
  List.iter
    (fun mechanism ->
      let est = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism () in
      let fmm = est.Pwcet.Estimator.fmm in
      match Pwcet.Fmm.of_wire ~config ~mechanism (Pwcet.Fmm.to_wire fmm) with
      | Error msg -> Alcotest.failf "%s: of_wire failed: %s" (M.name mechanism) msg
      | Ok fmm' ->
        Alcotest.(check (array (array int)))
          (Printf.sprintf "%s table" (M.name mechanism))
          (Pwcet.Fmm.table fmm) (Pwcet.Fmm.table fmm');
        Alcotest.(check string)
          (Printf.sprintf "%s stable re-encoding" (M.name mechanism))
          (Pwcet.Fmm.to_wire fmm) (Pwcet.Fmm.to_wire fmm'))
    M.all

let test_fmm_wire_rejects_corruption () =
  let program = task_of "fibcall" in
  let config = Cache.Config.paper_default in
  let task = Pwcet.Estimator.prepare ~program ~config () in
  let est = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.No_protection () in
  let wire = Pwcet.Fmm.to_wire est.Pwcet.Estimator.fmm in
  let table = Pwcet.Fmm.table est.Pwcet.Estimator.fmm in
  let state = Random.State.make [| 47 |] in
  for _ = 1 to 200 do
    let b = Bytes.of_string wire in
    let i = Random.State.int state (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int state 255)));
    match Pwcet.Fmm.of_wire ~config ~mechanism:M.No_protection (Bytes.to_string b) with
    | Error _ -> ()
    | Ok fmm' ->
      (* A mutation may luckily preserve validity (e.g. a cell bumped
         within monotone range); what it must never do is produce an
         invalid table or crash. *)
      let t' = Pwcet.Fmm.table fmm' in
      Alcotest.(check int) "sets preserved" (Array.length table) (Array.length t')
  done

(* --- end-to-end estimator caching ------------------------------------------- *)

(* An estimate builds (and stores) its penalty law on first read; the
   tests below that count store traffic read the whole law at once. *)
let whole est =
  ignore (Pwcet.Estimator.penalty est);
  est

let est_fingerprint est =
  ( D.support (Pwcet.Estimator.penalty est),
    Pwcet.Estimator.pwcet est ~target:1e-15,
    Pwcet.Estimator.worst_rung est,
    Pwcet.Fmm.table est.Pwcet.Estimator.fmm )

let test_estimator_warm_bit_identical () =
  let program = task_of "bs" in
  let config = Cache.Config.paper_default in
  let dir = fresh_dir () in
  let st = Artifact.open_store ~dir () in
  let cold_task = Pwcet.Estimator.prepare ~program ~config ~store:st () in
  let cold =
    whole
      (Pwcet.Estimator.estimate cold_task ~pfail:1e-4 ~mechanism:M.Shared_reliable_buffer
         ~store:st ())
  in
  Alcotest.(check bool) "cold run wrote artifacts" true ((Artifact.stats st).Artifact.puts > 0);
  let st2 = Artifact.open_store ~dir () in
  let warm_task = Pwcet.Estimator.prepare ~program ~config ~store:st2 () in
  let warm =
    whole
      (Pwcet.Estimator.estimate warm_task ~pfail:1e-4 ~mechanism:M.Shared_reliable_buffer
         ~store:st2 ())
  in
  let s2 = Artifact.stats st2 in
  Alcotest.(check int) "warm run recomputed nothing" 0 s2.Artifact.puts;
  Alcotest.(check bool) "warm run hit the cache" true (s2.Artifact.hits >= 3);
  Alcotest.(check bool) "warm == cold" true (est_fingerprint warm = est_fingerprint cold);
  (* and both match a storeless run — the --no-cache contract *)
  let plain_task = Pwcet.Estimator.prepare ~program ~config () in
  let plain =
    Pwcet.Estimator.estimate plain_task ~pfail:1e-4 ~mechanism:M.Shared_reliable_buffer ()
  in
  Alcotest.(check bool) "cached == uncached" true (est_fingerprint warm = est_fingerprint plain)

(* A warm read of a law with +0.0 points is a hit, not a quarantine and
   a recomputation. *)
let test_estimator_warm_zero_points () =
  let task, cold = zero_point_law () in
  let dir = fresh_dir () in
  let st = Artifact.open_store ~dir () in
  let first =
    whole (Pwcet.Estimator.estimate task ~pfail:1e-6 ~mechanism:M.No_protection ~store:st ())
  in
  let st2 = Artifact.open_store ~dir () in
  let warm =
    whole (Pwcet.Estimator.estimate task ~pfail:1e-6 ~mechanism:M.No_protection ~store:st2 ())
  in
  let s2 = Artifact.stats st2 in
  Alcotest.(check int) "nothing corrupt" 0 s2.Artifact.corrupt;
  Alcotest.(check int) "nothing recomputed" 0 s2.Artifact.puts;
  Alcotest.(check int) "every lookup hit" (s2.Artifact.hits + s2.Artifact.misses) s2.Artifact.hits;
  Alcotest.(check string) "warm == cold" (D.to_wire (Pwcet.Estimator.penalty cold))
    (D.to_wire (Pwcet.Estimator.penalty warm));
  Alcotest.(check string) "stored == cold" (D.to_wire (Pwcet.Estimator.penalty cold))
    (D.to_wire (Pwcet.Estimator.penalty first))

let test_estimator_survives_vandalised_store () =
  (* Flip a byte in EVERY stored object: the next run must quarantine
     them all and still produce the exact uncached result. *)
  let program = task_of "fibcall" in
  let config = Cache.Config.paper_default in
  let dir = fresh_dir () in
  let st = Artifact.open_store ~dir () in
  let task = Pwcet.Estimator.prepare ~program ~config ~store:st () in
  let reference =
    whole (Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.Reliable_way ~store:st ())
  in
  let objects_root = Filename.concat dir "objects" in
  let vandalised = ref 0 in
  Array.iter
    (fun prefix ->
      let sub = Filename.concat objects_root prefix in
      if Sys.is_directory sub then
        Array.iter
          (fun name ->
            let path = Filename.concat sub name in
            let data = In_channel.with_open_bin path In_channel.input_all in
            let b = Bytes.of_string data in
            let i = Bytes.length b / 2 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
            Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
            incr vandalised)
          (Sys.readdir sub))
    (Sys.readdir objects_root);
  Alcotest.(check bool) "something to vandalise" true (!vandalised >= 3);
  let st2 = Artifact.open_store ~dir () in
  let task2 = Pwcet.Estimator.prepare ~program ~config ~store:st2 () in
  let recomputed =
    whole (Pwcet.Estimator.estimate task2 ~pfail:1e-4 ~mechanism:M.Reliable_way ~store:st2 ())
  in
  let s2 = Artifact.stats st2 in
  Alcotest.(check int) "every object quarantined" !vandalised s2.Artifact.corrupt;
  Alcotest.(check int) "nothing served from cache" 0 s2.Artifact.hits;
  Alcotest.(check bool) "recomputed == reference" true
    (est_fingerprint recomputed = est_fingerprint reference)

(* Every stored object as (name under objects/, bytes), sorted. *)
let store_objects dir =
  let objects_root = Filename.concat dir "objects" in
  Sys.readdir objects_root |> Array.to_list
  |> List.concat_map (fun prefix ->
         let sub = Filename.concat objects_root prefix in
         if Sys.is_directory sub then
           Sys.readdir sub |> Array.to_list
           |> List.map (fun name ->
                  ( Filename.concat prefix name,
                    In_channel.with_open_bin (Filename.concat sub name) In_channel.input_all ))
         else [])
  |> List.sort compare

(* [prepare] hashes the program into the task's identity only when it
   is given a store. A task prepared without one and then used with a
   store must write exactly the objects — names and bytes — that a task
   prepared with a store writes through the same calls. *)
let test_estimator_identity_deferred () =
  let program = task_of "crc" in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let use task dir =
    let st = Artifact.open_store ~dir () in
    let est =
      whole (Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.Reliable_way ~store:st ())
    in
    let fmms = Pwcet.Estimator.fmm_grid task ~mechanisms:M.all ~store:st () in
    List.iter
      (fun (_, fmm) ->
        ignore (whole (Pwcet.Estimator.estimate_of_fmm task ~fmm ~pfail:1e-5 ~store:st ())))
      fmms;
    let hits, missing = Pwcet.Estimator.fmm_lookup task ~mechanisms:M.all ~store:st () in
    Alcotest.(check int) "every table stored" 3 (List.length hits);
    Alcotest.(check int) "nothing missing" 0 (List.length missing);
    est_fingerprint est
  in
  let keyed =
    Pwcet.Estimator.prepare ~program ~config ~store:(Artifact.open_store ~dir:(fresh_dir ()) ()) ()
  in
  let plain = Pwcet.Estimator.prepare ~program ~config () in
  Alcotest.(check bool) "identity hashed with a store" true
    (keyed.Pwcet.Estimator.identity <> None);
  Alcotest.(check bool) "identity deferred without one" true
    (plain.Pwcet.Estimator.identity = None);
  Alcotest.(check (list (pair string string)))
    "same identity" (Pwcet.Estimator.identity keyed) (Pwcet.Estimator.identity plain);
  let keyed_dir = fresh_dir () and plain_dir = fresh_dir () in
  let keyed_est = use keyed keyed_dir and plain_est = use plain plain_dir in
  Alcotest.(check bool) "same estimate" true (keyed_est = plain_est);
  let keyed_objects = store_objects keyed_dir in
  Alcotest.(check bool) "objects written" true (List.length keyed_objects >= 6);
  Alcotest.(check (list (pair string string))) "same objects" keyed_objects
    (store_objects plain_dir)

(* The persisted keys, pinned to the bytes earlier builds wrote: a
   change to any key component (engine or float tags, the literal
   ("impl", "sliced") part, the identity layout) would turn every
   existing store entry and resume journal into a miss. The expected
   values were captured before the FMM engine selector was removed, and
   must not be edited to make this test pass; the one exception is the
   grid's penalty laws, which became cut laws under keys of their own
   (("cut", ...)) on purpose, so that a whole-law read never receives
   one: their six keys were captured then, and the five others are the
   original values. Since an estimate builds its law on first read, the
   test reads the estimate's whole law before listing the objects. *)
let test_persisted_keys_pinned () =
  let program = task_of "fibcall" in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let dir = fresh_dir () in
  let st = Artifact.open_store ~dir () in
  let task = Pwcet.Estimator.prepare ~program ~config ~store:st () in
  ignore (whole (Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.Reliable_way ~store:st ()));
  let spec =
    { Grid.benchmarks = [ ("fibcall", program) ];
      configs = [ config ];
      mechanisms = M.all;
      pfail_grid = [ 1e-5; 1e-4 ];
      targets = [ 1e-15 ];
      engine = `Path;
      exact = false;
      impl = `Sliced }
  in
  List.iter
    (fun (_, outcome) -> if Result.is_error outcome then Alcotest.fail "grid cell failed")
    (Grid.run ~store:st spec);
  (* The WCET, the three FMMs and the estimate's whole law (02, 76, 9e,
     cd, fa) and the grid's six laws, cut at 1e-15, whose RW 1e-4 law
     no longer shares the estimate's key. *)
  Alcotest.(check (list string))
    "object keys"
    [ "02/026a5be17fd8cd45586b71de328b0734";
      "76/76327fa2a7d4fbbeef6e54aedc1b5b03";
      "87/872c299fa6ac3159b0ae07838131d094";
      "89/8900bb9d16595663d1e5265f09d30a92";
      "9e/9e671042ac3873e7ddbae740e62636a2";
      "a4/a4ca042e6404dc8860195b2764079769";
      "c2/c2d39cffacf7780785f5465c0b0344a8";
      "c9/c963090a2191bc4a28c354c199bc9111";
      "cd/cd2662aa367c87fc383e2b7fcc581824";
      "e9/e956520477fde197934cb9f7675199eb";
      "fa/fabb04117131ef73327ad7f51d00c315" ]
    (List.map fst (store_objects dir));
  Alcotest.(check string)
    "grid run key" "7e483e619295af2283968fad2e445abd"
    (Artifact.key (Grid.identity spec))

(* The analyze path's store traffic. A cold pWCET read writes one law,
   cut at the target read, and the objects a grid cell at the same point
   and target writes; a warm read writes nothing and answers the same. A
   whole-law read then writes the whole law under its own key: the
   whole-law key of "persisted keys pinned". *)
let test_estimator_cut_on_read () =
  let program = task_of "fibcall" in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let read dir =
    let st = Artifact.open_store ~dir () in
    let task = Pwcet.Estimator.prepare ~program ~config ~store:st () in
    let est = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.Reliable_way ~store:st () in
    let before = (Artifact.stats st).Artifact.puts in
    let pwcet = Pwcet.Estimator.pwcet est ~target:1e-15 in
    let stats = Artifact.stats st in
    (est, pwcet, stats.Artifact.puts - before, stats.Artifact.puts)
  in
  let dir = fresh_dir () in
  let est, cold, read_writes, _ = read dir in
  Alcotest.(check int) "the read writes one law" 1 read_writes;
  let grid_dir = fresh_dir () in
  let spec =
    { Grid.benchmarks = [ ("fibcall", program) ]; configs = [ config ];
      mechanisms = [ M.Reliable_way ]; pfail_grid = [ 1e-4 ]; targets = [ 1e-15 ];
      engine = `Path; exact = false; impl = `Sliced }
  in
  ignore (Grid.run ~store:(Artifact.open_store ~dir:grid_dir ()) spec);
  let cut_objects = store_objects dir in
  Alcotest.(check (list (pair string string))) "the grid's objects" (store_objects grid_dir)
    cut_objects;
  let _, warm, _, warm_writes = read dir in
  Alcotest.(check int) "warm pwcet" cold warm;
  Alcotest.(check int) "warm writes" 0 warm_writes;
  ignore (Pwcet.Estimator.penalty est);
  Alcotest.(check (list string))
    "the whole law's key" [ "02/026a5be17fd8cd45586b71de328b0734" ]
    (List.filter_map
       (fun (name, bytes) -> if List.mem (name, bytes) cut_objects then None else Some name)
       (store_objects dir))

let test_estimator_budget_bypasses_store () =
  let program = task_of "fibcall" in
  let config = Cache.Config.paper_default in
  let st = Artifact.open_store ~dir:(fresh_dir ()) () in
  let budget = Robust.Budget.make ~timeout:3600.0 () in
  let task = Pwcet.Estimator.prepare ~program ~config ~budget ~store:st () in
  let _ =
    Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.No_protection ~budget ~store:st ()
  in
  let s = Artifact.stats st in
  Alcotest.(check int) "no lookups" 0 (s.Artifact.hits + s.Artifact.misses);
  Alcotest.(check int) "no writes" 0 s.Artifact.puts

(* Two processes, one store directory: a child process hammers writes
   and reads while the parent repeatedly runs a full GC. Listing and
   removal races (objects vanishing between readdir and unlink,
   directories appearing mid-sweep) must be absorbed by both sides —
   the child sees only hits or honest misses, the GC only counts what
   it really removed, and neither process ever dies. OCaml 5 forbids
   [fork] once domains exist (earlier tests spawn them), so the writer
   side re-execs this very binary with PWCET_STORE_WRITER_DIR set; the
   hook below runs before Alcotest and before any domain. *)
let () =
  match Sys.getenv_opt "PWCET_STORE_WRITER_DIR" with
  | None -> ()
  | Some dir ->
    let code =
      try
        let st = Artifact.open_store ~dir () in
        let payload = String.make 128 'y' in
        for i = 0 to 399 do
          let key = Printf.sprintf "w%d" i in
          Artifact.put st ~key ~kind:"TEST" ~version:1 payload;
          match Artifact.get st ~key ~kind:"TEST" ~version:1 with
          | Some data when not (String.equal data payload) -> raise Exit
          | Some _ -> ()
          | None -> ()  (* the concurrent GC may have eaten it: an honest miss *)
        done;
        0
      with _ -> 1
    in
    exit code

let test_gc_concurrent_two_process () =
  let dir = fresh_dir () in
  let st = Artifact.open_store ~dir () in
  for i = 0 to 19 do
    Artifact.put st ~key:(Printf.sprintf "seed%d" i) ~kind:"TEST" ~version:1
      (String.make 64 'x')
  done;
  let env =
    Array.append (Unix.environment ()) [| "PWCET_STORE_WRITER_DIR=" ^ dir |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  let removed = ref 0 in
  (* First sweep clears the seeds; then wait until the writer is
     demonstrably running before the contended sweeps, so the two
     processes genuinely overlap. *)
  let files, _ = Artifact.gc ~all:true st in
  removed := !removed + files;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (Artifact.disk_stats st).Artifact.objects = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  for _ = 1 to 50 do
    let files, _bytes = Artifact.gc ~all:true st in
    removed := !removed + files;
    Unix.sleepf 0.002
  done;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "writer process failed with code %d" c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "writer process killed");
  Alcotest.(check bool) "gc removed files under fire" true (!removed > 0);
  (* Whatever survived the crossfire must still be fully intact. *)
  let report = Artifact.verify st in
  Alcotest.(check int) "no corrupt survivors" 0 (List.length report.Artifact.quarantined)

let () =
  Alcotest.run "store"
    [ ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip
        ; Alcotest.test_case "rejects malformed" `Quick test_wire_rejects_malformed
        ] )
    ; ( "codec",
        [ Alcotest.test_case "roundtrip + versioning" `Quick test_codec_roundtrip_and_version
        ; Alcotest.test_case "every bit flip is corrupt" `Quick
            test_codec_every_bit_flip_is_corrupt
        ] )
    ; ( "artifact",
        [ Alcotest.test_case "put/get/stats" `Quick test_artifact_put_get
        ; Alcotest.test_case "corruption fuzz (1100 faults)" `Quick
            test_artifact_corruption_fuzz
        ; Alcotest.test_case "verify quarantines" `Quick test_artifact_verify_quarantines
        ; Alcotest.test_case "concurrent writers (multi-domain)" `Quick
            test_artifact_concurrent_writers
        ; Alcotest.test_case "concurrent writers (separate handles)" `Quick
            test_artifact_concurrent_handles
        ; Alcotest.test_case "gc vs writer (two processes)" `Quick
            test_gc_concurrent_two_process
        ; Alcotest.test_case "quarantine counts a miss" `Quick
            test_artifact_quarantine_counts_miss
        ] )
    ; ( "journal",
        [ Alcotest.test_case "roundtrip + resume" `Quick test_journal_roundtrip
        ; Alcotest.test_case "torn-tail fuzz" `Quick test_journal_torn_tail_fuzz
        ] )
    ; ( "domain codecs",
        [ Alcotest.test_case "dist roundtrip" `Quick test_dist_wire_roundtrip
        ; Alcotest.test_case "dist rejects invalid" `Quick test_dist_wire_rejects_invalid
        ; Alcotest.test_case "dist rejects wrapped length" `Quick
            test_dist_wire_rejects_wrapped_length
        ; Alcotest.test_case "fmm roundtrip" `Quick test_fmm_wire_roundtrip
        ; Alcotest.test_case "fmm corruption never crashes" `Quick
            test_fmm_wire_rejects_corruption
        ; Alcotest.test_case "dist with +0.0 points" `Quick test_dist_wire_zero_points
        ] )
    ; ( "estimator",
        [ Alcotest.test_case "warm cache bit-identical" `Quick test_estimator_warm_bit_identical
        ; Alcotest.test_case "vandalised store recomputes" `Quick
            test_estimator_survives_vandalised_store
        ; Alcotest.test_case "budget bypasses store" `Quick test_estimator_budget_bypasses_store
        ; Alcotest.test_case "identity deferred without a store" `Quick
            test_estimator_identity_deferred
        ; Alcotest.test_case "persisted keys pinned" `Quick test_persisted_keys_pinned
        ; Alcotest.test_case "cut law written on read" `Quick test_estimator_cut_on_read
        ; Alcotest.test_case "warm read of +0.0 points" `Quick test_estimator_warm_zero_points
        ] )
    ]
