type fault =
  | Io_error of Unix.error
  | Short_io
  | Bit_flip
  | Stall of float
  | Kill

type rule = { site : string; p : float; fault : fault }
type t = { name : string; rules : rule list }

let rule site p fault =
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Chaos.Plan.rule: probability %g outside [0, 1]" p);
  { site; p; fault }

let none = { name = "none"; rules = [] }

(* The store plan covers every on-disk failure mode the paper's
   infrastructure must absorb: transient and persistent read errors,
   silent media corruption surfacing on readback, a filling disk
   (ENOSPC on data writes, fsync and rename), and torn appends. *)
let store_rules =
  [ rule Site.store_read 0.08 (Io_error Unix.EIO);
    rule Site.store_read_data 0.08 Bit_flip;
    rule Site.store_write 0.05 (Io_error Unix.ENOSPC);
    rule Site.store_write 0.04 (Io_error Unix.EIO);
    rule Site.store_write 0.06 Short_io;
    rule Site.store_fsync 0.05 (Io_error Unix.EIO);
    rule Site.store_rename 0.03 (Io_error Unix.ENOSPC);
    rule Site.journal_append 0.05 Short_io;
    rule Site.journal_append 0.03 (Io_error Unix.ENOSPC) ]

let store_plan = { name = "store"; rules = store_rules }

(* Worker-domain faults: the domain picking up a job dies on the spot
   (the job must be requeued and the domain respawned) or stalls long
   enough to reorder everything behind it. *)
let workers_rules =
  [ rule Site.workers_job 0.12 Kill; rule Site.workers_job 0.05 (Stall 0.02) ]

let workers_plan = { name = "workers"; rules = workers_rules }

(* DAG-node faults for the grid engine: kills surface as typed
   [Worker_crash] cells, stalls only delay. Decisions are keyed by
   node index, so the same nodes die at every [--jobs]. *)
let pool_rules =
  [ rule Site.pool_node 0.06 Kill; rule Site.pool_node 0.04 (Stall 0.01) ]

let pool_plan = { name = "pool"; rules = pool_rules }

(* Hostile-network plan: reads and writes on either side of a
   connection hit EAGAIN, partial transfers and resets; connects are
   refused. Every fault is one the frame/client layers must either
   heal (retry, resume the partial transfer) or surface typed. *)
let service_rules =
  [ rule Site.frame_read 0.06 (Io_error Unix.EAGAIN);
    rule Site.frame_read 0.03 (Io_error Unix.ECONNRESET);
    rule Site.frame_write 0.08 Short_io;
    rule Site.frame_write 0.03 (Io_error Unix.ECONNRESET);
    rule Site.frame_write 0.03 (Io_error Unix.EPIPE);
    rule Site.client_connect 0.06 (Io_error Unix.ECONNREFUSED);
    rule Site.client_send 0.04 (Io_error Unix.ECONNRESET);
    rule Site.client_recv 0.04 (Io_error Unix.ECONNRESET) ]

let service_plan = { name = "service"; rules = service_rules }

let all_plan =
  { name = "all"; rules = store_rules @ workers_rules @ pool_rules @ service_rules }

let builtin = [ none; store_plan; workers_plan; pool_plan; service_plan; all_plan ]
let all_names = List.map (fun p -> p.name) builtin

let named name =
  match List.find_opt (fun p -> String.equal p.name name) builtin with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown chaos plan %S (expected one of %s)" name
         (String.concat ", " all_names))

let sites t = List.sort_uniq compare (List.map (fun r -> r.site) t.rules)
