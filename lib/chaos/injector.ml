(* Counter-based fault decisions, exactly the Sim.Rng discipline: the
   same Numeric.Splitmix finalizer, driven by (seed, site, occurrence)
   instead of (seed, sample, draw). *)
open Numeric.Splitmix

let site_code site =
  let h = ref (String.length site) in
  String.iter (fun c -> h := mix ((!h * mult_b) + Char.code c)) site;
  !h

exception Killed of string

let () =
  Printexc.register_printer (function
    | Killed site -> Some (Printf.sprintf "Chaos.Injector.Killed(%s)" site)
    | _ -> None)

type outcome =
  | Pass
  | Fail of Unix.error
  | Short
  | Flip
  | Sleep of float
  | Die

type site_state = {
  rules : Plan.rule array;
  occurrence : int Atomic.t;  (** next occurrence index at this site *)
  hits : int Atomic.t;  (** non-[Pass] decisions *)
}

type t = {
  seed : int;
  plan : Plan.t;
  by_site : (string, site_state) Hashtbl.t;
      (** built once at {!create}, read-only afterwards — safe to
          consult from any domain or thread without a lock *)
}

let create ~seed plan =
  let by_site = Hashtbl.create 16 in
  List.iter
    (fun site ->
      let rules =
        Array.of_list (List.filter (fun (r : Plan.rule) -> String.equal r.site site) plan.Plan.rules)
      in
      Hashtbl.replace by_site site
        { rules; occurrence = Atomic.make 0; hits = Atomic.make 0 })
    (Plan.sites plan);
  { seed; plan; by_site }

let seed t = t.seed
let plan t = t.plan

(* The decision for occurrence [k] at [site]: a pure function of
   (seed, site, rule index, k). Rules are consulted in plan order with
   independent draws; the first that fires wins. No state is read, so
   equal (seed, site, k) give equal outcomes on every run, in every
   process, under every interleaving. *)
let decide_pure t ~site ~rules ~occurrence =
  let code = site_code site in
  let base = mix (mix (t.seed + 1) + (code * gamma)) in
  let n = Array.length rules in
  let rec pick j =
    if j >= n then Pass
    else begin
      let r : Plan.rule = rules.(j) in
      let u = uniform ~stream:(base + ((j + 1) * mult_b)) ~draw:occurrence in
      if u < r.p then
        match r.fault with
        | Plan.Io_error err -> Fail err
        | Plan.Short_io -> Short
        | Plan.Bit_flip -> Flip
        | Plan.Stall s -> Sleep s
        | Plan.Kill -> Die
      else pick (j + 1)
    end
  in
  pick 0

let state t ~site = Hashtbl.find_opt t.by_site site

let record st outcome =
  (match outcome with Pass -> () | _ -> Atomic.incr st.hits);
  outcome

(* Decision for an explicitly numbered occurrence — the caller owns the
   numbering (e.g. a DAG node index), so the schedule is independent of
   execution order. *)
let decide_at t ~site ~occurrence =
  match state t ~site with
  | None -> Pass
  | Some st -> record st (decide_pure t ~site ~rules:st.rules ~occurrence)

(* Decision for the next occurrence in program order at this site. *)
let decide t ~site =
  match state t ~site with
  | None -> Pass
  | Some st ->
    let occurrence = Atomic.fetch_and_add st.occurrence 1 in
    record st (decide_pure t ~site ~rules:st.rules ~occurrence)

let injected t =
  Hashtbl.fold
    (fun site st acc ->
      let n = Atomic.get st.hits in
      if n > 0 then (site, n) :: acc else acc)
    t.by_site []
  |> List.sort compare

let total_injected t = List.fold_left (fun acc (_, n) -> acc + n) 0 (injected t)

(* --- taps: what the instrumented layers actually call --------------------- *)

let raise_fault ~site err = raise (Unix.Unix_error (err, site, "chaos"))

let act ~site = function
  | Pass | Short | Flip -> ()
  | Fail err -> raise_fault ~site err
  | Sleep s -> Unix.sleepf s
  | Die -> raise (Killed site)

let tap opt ~site =
  match opt with None -> () | Some t -> act ~site (decide t ~site)

let tap_at opt ~site ~occurrence =
  match opt with None -> () | Some t -> act ~site (decide_at t ~site ~occurrence)

(* I/O length injection: [`Partial n] asks the call site to transfer
   only [n] of [len] bytes this once (0 <= n < len, deterministic in
   the occurrence). What a partial transfer *means* — retryable short
   write vs torn-then-failed append — is the call site's semantics. *)
let tap_io opt ~site ~len =
  match opt with
  | None -> `Full
  | Some t -> (
    match state t ~site with
    | None -> `Full
    | Some st -> (
      let occurrence = Atomic.fetch_and_add st.occurrence 1 in
      match record st (decide_pure t ~site ~rules:st.rules ~occurrence) with
      | Pass | Flip -> `Full
      | Fail err -> raise_fault ~site err
      | Sleep s ->
        Unix.sleepf s;
        `Full
      | Die -> raise (Killed site)
      | Short ->
        if len <= 0 then `Full
        else begin
          let u = uniform ~stream:(mix (t.seed + site_code site)) ~draw:occurrence in
          `Partial (int_of_float (u *. float_of_int len) mod len)
        end))

(* Readback corruption: flip one deterministically chosen bit of the
   payload — the integrity layer above must catch it. *)
let tap_data opt ~site data =
  match opt with
  | None -> data
  | Some t -> (
    match state t ~site with
    | None -> data
    | Some st -> (
      let occurrence = Atomic.fetch_and_add st.occurrence 1 in
      match record st (decide_pure t ~site ~rules:st.rules ~occurrence) with
      | Pass | Short -> data
      | Fail err -> raise_fault ~site err
      | Sleep s ->
        Unix.sleepf s;
        data
      | Die -> raise (Killed site)
      | Flip ->
        if String.length data = 0 then data
        else begin
          let u = uniform ~stream:(mix (t.seed + site_code site)) ~draw:occurrence in
          let bit = int_of_float (u *. float_of_int (String.length data * 8)) in
          let byte = min (String.length data - 1) (bit / 8) in
          let b = Bytes.of_string data in
          Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit land 7))));
          Bytes.unsafe_to_string b
        end))

(* Worker-loop variant: never raises, so the loop can sequence its own
   requeue/respawn protocol around a simulated domain death. *)
let tap_worker opt ~site =
  match opt with
  | None -> `Pass
  | Some t -> (
    match decide t ~site with
    | Pass | Short | Flip -> `Pass
    | Fail _ -> `Pass
    | Sleep s -> `Sleep s
    | Die -> `Die)
