(** Dynamic dependence validation: observe every DistArray element
    access during a serial run, reconstruct the dependences that
    actually happened, and hold the static analysis and the generated
    schedule to them.

    Three layers, all reported per app:

    - {b soundness} — every observed dependence vector must be covered
      by a static vector from {!Orion_analysis.Depanalysis.analyze}
      (misses name the offending iteration pair and element);
    - {b races} — no observed dependence edge may connect blocks the
      schedule runs concurrently (or, for ordered loops, in reversed
      order);
    - {b differential} — the scheduled execution and an adversarial
      dependence-respecting reordering of it must produce element-wise
      equal model arrays (bitwise, or within the app's tolerance for
      buffered floating-point accumulation).

    Apps come from the {!Orion.App} registry (populated by
    {!Orion_apps.Registry}). *)

open Orion_lang
open Orion_dsm
module Buffer = Stdlib.Buffer  (* [open Orion_dsm] shadows it *)
module Plan = Orion_analysis.Plan
module Depvec = Orion_analysis.Depvec
module Schedule = Orion_runtime.Schedule
module Executor = Orion_runtime.Executor
module Domain_exec = Orion_runtime.Domain_exec
module App = Orion.App
module Report = Orion.Report

(* ------------------------------------------------------------------ *)
(* Serial observation pass (run A)                                     *)
(* ------------------------------------------------------------------ *)

(** Execute the loop serially in ascending key order with the access
    log attached (this mutates the instance's arrays: the instance
    afterwards holds the canonical serial result). *)
let observe (inst : App.instance) : Access_log.t =
  let log = Access_log.create () in
  Access_log.attach log ~skip:[ inst.App.inst_iter_name ] inst.App.inst_env;
  Dist_array.iter
    (fun key value ->
      Access_log.set_iter log key;
      Interp.eval_body_for inst.App.inst_env ~key_var:inst.App.inst_key_var
        ~value_var:inst.App.inst_value_var ~key ~value inst.App.inst_body)
    inst.App.inst_iter;
  Access_log.detach inst.App.inst_env;
  log

(* ------------------------------------------------------------------ *)
(* Soundness: observed vectors vs static analysis                      *)
(* ------------------------------------------------------------------ *)

let covers_elt (e : Depvec.elt) (d : int) =
  match e with
  | Depvec.Fin k -> d = k
  | Depvec.Pos_inf -> d >= 1
  | Depvec.Neg_inf -> d <= -1
  | Depvec.Any -> true

(** Does static vector [vec] cover observed distance [dist]? *)
let covers (vec : Depvec.t) (dist : int array) =
  Array.length vec = Array.length dist
  && Array.for_all Fun.id (Array.mapi (fun i e -> covers_elt e dist.(i)) vec)

type miss = {
  m_array : string;
  m_kind : Depobserve.kind;
  m_distance : int array;
  m_edge : Depobserve.edge;  (** the offending iteration pair *)
  m_static : Depvec.t list;  (** the static vectors that failed to cover *)
}

let miss_to_string m =
  Printf.sprintf
    "%s: observed %s dependence (%s) -> (%s) at element [%s], distance (%s) \
     not covered by static {%s}"
    m.m_array
    (Depobserve.kind_to_string m.m_kind)
    (Depobserve.iter_key m.m_edge.Depobserve.e_src)
    (Depobserve.iter_key m.m_edge.Depobserve.e_dst)
    (Depobserve.iter_key m.m_edge.Depobserve.e_key)
    (Depobserve.iter_key m.m_distance)
    (String.concat "; " (List.map Depvec.to_string m.m_static))

(** Every observed distance vector not covered by any static vector of
    its array. *)
let soundness_misses ~(static : (string * Depvec.t list) list)
    (edges : Depobserve.edge list) : miss list =
  List.concat_map
    (fun (array, observed) ->
      let vecs =
        match List.assoc_opt array static with Some v -> v | None -> []
      in
      List.filter_map
        (fun (dist, (witness : Depobserve.edge)) ->
          if List.exists (fun v -> covers v dist) vecs then None
          else
            Some
              {
                m_array = array;
                m_kind = witness.Depobserve.e_kind;
                m_distance = dist;
                m_edge = witness;
                m_static = vecs;
              })
        observed)
    (Depobserve.vectors_by_array edges)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type app_report = {
  r_app : string;
  r_strategy : string;
  r_model : string;
  r_ordered : bool;
  r_workers : int;
  r_space_parts : int;
  r_time_parts : int;
  r_events : int;
  r_edges : int;
  r_observed : (string * int array list) list;
  r_static : (string * string list) list;
  r_misses : miss list;
  r_violations : Race.violation list;
  r_diff : Dist_array.diff_result list;  (** scheduled vs adversarial witness *)
  r_serial_diff : Dist_array.diff_result list;
      (** scheduled vs serial ascending *)
  r_tolerance : float option;
  r_passed : bool;
}

let take n l =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n l

let report_to_string (r : app_report) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "orion verify: app=%s strategy=%s model=%s ordered=%b\n" r.r_app
    r.r_strategy r.r_model r.r_ordered;
  pf "  schedule: %d workers, %d space x %d time partitions\n" r.r_workers
    r.r_space_parts r.r_time_parts;
  pf "  access log: %d events, %d observed dependence edges\n" r.r_events
    r.r_edges;
  List.iter
    (fun (array, dists) ->
      let statics =
        match List.assoc_opt array r.r_static with
        | Some s -> String.concat " " s
        | None -> "-"
      in
      pf "  %s: observed distances {%s}, static {%s}\n" array
        (String.concat " "
           (List.map (fun d -> "(" ^ Depobserve.iter_key d ^ ")") (take 8 dists))
        ^ (if List.length dists > 8 then
             Printf.sprintf " +%d more" (List.length dists - 8)
           else "")
        )
        statics)
    r.r_observed;
  (match r.r_misses with
  | [] -> pf "  soundness: OK (every observed vector covered)\n"
  | misses ->
      pf "  soundness: FAIL (%d uncovered observed vectors)\n"
        (List.length misses);
      List.iter (fun m -> pf "    MISS %s\n" (miss_to_string m)) (take 8 misses);
      if List.length misses > 8 then
        pf "    ... and %d more\n" (List.length misses - 8));
  (match r.r_violations with
  | [] -> pf "  races: OK (no dependence edge runs concurrently)\n"
  | vs ->
      pf "  races: FAIL (%d violations)\n" (List.length vs);
      List.iter
        (fun v -> pf "    RACE %s\n" (Race.violation_to_string v))
        (take 8 vs);
      if List.length vs > 8 then pf "    ... and %d more\n" (List.length vs - 8));
  let tol_str =
    match r.r_tolerance with
    | None -> "exact"
    | Some t -> Printf.sprintf "rel tol %.1e" t
  in
  List.iter
    (fun (d : Dist_array.diff_result) ->
      pf "  differential %s (scheduled vs witness, %s): max |delta| = %.3e%s\n"
        d.d_array tol_str d.d_max_abs
        (if Dist_array.diff_ok ~tolerance:r.r_tolerance d then ""
         else "  FAIL"))
    r.r_diff;
  List.iter
    (fun (d : Dist_array.diff_result) ->
      pf "  info %s (scheduled vs serial ascending): max |delta| = %.3e\n"
        d.d_array d.d_max_abs)
    r.r_serial_diff;
  pf (if r.r_passed then "  PASS\n" else "  FAIL\n");
  Buffer.contents b

(* JSON via the shared versioned report library *)
let ints = Report.ints

let miss_json m =
  Report.Obj
    [
      ("array", Report.Str m.m_array);
      ("kind", Report.Str (Depobserve.kind_to_string m.m_kind));
      ("distance", ints m.m_distance);
      ("src_iteration", ints m.m_edge.Depobserve.e_src);
      ("dst_iteration", ints m.m_edge.Depobserve.e_dst);
      ("element", ints m.m_edge.Depobserve.e_key);
      ( "static",
        Report.List
          (List.map (fun v -> Report.Str (Depvec.to_string v)) m.m_static) );
    ]

let violation_json (v : Race.violation) =
  let e = v.Race.v_edge in
  Report.Obj
    [
      ("array", Report.Str e.Depobserve.e_array);
      ("kind", Report.Str (Depobserve.kind_to_string e.Depobserve.e_kind));
      ("element", ints e.Depobserve.e_key);
      ("src_iteration", ints e.Depobserve.e_src);
      ("dst_iteration", ints e.Depobserve.e_dst);
      ( "src_block",
        Report.List
          [
            Report.Int (fst v.Race.v_src_block);
            Report.Int (snd v.Race.v_src_block);
          ] );
      ( "dst_block",
        Report.List
          [
            Report.Int (fst v.Race.v_dst_block);
            Report.Int (snd v.Race.v_dst_block);
          ] );
      ("why", Report.Str (Race.why_to_string v.Race.v_why));
    ]

let diff_json (d : Dist_array.diff_result) =
  Report.Obj
    [
      ("array", Report.Str d.d_array);
      ("cells", Report.Int d.d_cells);
      ("max_abs", Report.Float d.d_max_abs);
      ("max_rel", Report.Float d.d_max_rel);
      ( "worst_key",
        match d.d_worst_key with None -> Report.Null | Some k -> ints k );
    ]

let report_payload (r : app_report) : Report.json =
  Report.Obj
    [
      ("app", Report.Str r.r_app);
      ("strategy", Report.Str r.r_strategy);
      ("model", Report.Str r.r_model);
      ("ordered", Report.Bool r.r_ordered);
      ("workers", Report.Int r.r_workers);
      ("space_parts", Report.Int r.r_space_parts);
      ("time_parts", Report.Int r.r_time_parts);
      ("events", Report.Int r.r_events);
      ("edges", Report.Int r.r_edges);
      ( "observed",
        Report.Obj
          (List.map
             (fun (a, dists) -> (a, Report.List (List.map ints dists)))
             r.r_observed) );
      ( "static",
        Report.Obj
          (List.map
             (fun (a, vs) ->
               (a, Report.List (List.map (fun s -> Report.Str s) vs)))
             r.r_static) );
      ("misses", Report.List (List.map miss_json r.r_misses));
      ("violations", Report.List (List.map violation_json r.r_violations));
      ("differential", Report.List (List.map diff_json r.r_diff));
      ("serial_differential", Report.List (List.map diff_json r.r_serial_diff));
      ( "tolerance",
        match r.r_tolerance with None -> Report.Null | Some t -> Report.Float t
      );
      ("passed", Report.Bool r.r_passed);
    ]

let report_to_json (r : app_report) =
  Report.emit ~kind:"verify" (report_payload r)

(* ------------------------------------------------------------------ *)
(* The differential runner                                             *)
(* ------------------------------------------------------------------ *)

type schedule_override = Force_1d | Force_2d_ordered | Force_2d_unordered

let override_to_string = function
  | Force_1d -> "1d"
  | Force_2d_ordered -> "2d-ordered"
  | Force_2d_unordered -> "2d-unordered"

let interp_body (inst : App.instance) : Value.t Executor.body =
 fun ~worker:_ ~key ~value ->
  Interp.eval_body_for inst.App.inst_env ~key_var:inst.App.inst_key_var
    ~value_var:inst.App.inst_value_var ~key ~value inst.App.inst_body

(** Replay a schedule on a fresh instance in the given block order
    (block entries keep their scheduled within-block order). *)
let replay (inst : App.instance) (sched : Value.t Schedule.t)
    (order : (int * int) array) =
  let body = interp_body inst in
  Array.iter
    (fun (s, t) ->
      let blk = Schedule.block sched ~space:s ~time:t in
      Array.iter
        (fun (key, value) -> body ~worker:0 ~key ~value)
        blk.Schedule.entries)
    order

let forced_schedule ov (inst : App.instance) ~workers ~depth :
    (Value.t Schedule.t * Domain_exec.model, string) result =
  let iter = inst.App.inst_iter in
  match ov with
  | Force_1d ->
      Ok
        ( Schedule.partition_1d ~shuffle_seed:17 iter ~space_dim:0
            ~space_parts:workers,
          Domain_exec.M_1d )
  | (Force_2d_ordered | Force_2d_unordered) when Dist_array.ndims iter < 2 ->
      Error
        (Printf.sprintf
           "--schedule %s needs a 2-D iteration space (%s is 1-D)"
           (override_to_string ov) (Dist_array.name iter))
  | Force_2d_ordered ->
      Ok
        ( Schedule.partition_2d ~shuffle_seed:17 iter ~space_dim:0
            ~time_dim:1 ~space_parts:workers ~time_parts:workers,
          Domain_exec.M_2d_ordered )
  | Force_2d_unordered ->
      let sched =
        Schedule.partition_2d ~shuffle_seed:17 iter ~space_dim:0 ~time_dim:1
          ~space_parts:workers
          ~time_parts:(workers * depth)
      in
      let depth =
        Domain_exec.effective_depth ~pipeline_depth:depth
          ~sp:sched.Schedule.space_parts ~tp:sched.Schedule.time_parts
      in
      Ok (sched, Domain_exec.M_2d_unordered { depth })

(** Verify one built-in app end to end: serial observation + soundness
    check, scheduled execution + race check, adversarial-witness
    differential.  [schedule_override] replaces the planner's schedule
    with a forced one (to demonstrate race detection on wrong
    schedules). *)
let verify_app ?(num_machines = 2) ?(workers_per_machine = 2) ?pipeline_depth
    ?(scale = 1.0) ?schedule_override app : (app_report, string) result =
  Orion_apps.Registry.ensure ();
  match App.find app with
  | None ->
      Error
        (Printf.sprintf "unknown app %S (expected one of: %s)" app
           (String.concat " " (App.names ())))
  | Some a -> (
      let make () = a.App.app_make ~scale ~num_machines ~workers_per_machine () in
      (* run A: serial ascending observation *)
      let inst_a = make () in
      let log = observe inst_a in
      let plan =
        Orion.analyze_loop inst_a.App.inst_session inst_a.App.inst_loop
      in
      let ordered = plan.Plan.ordered in
      let edges =
        Depobserve.edges ~ordered ~skip_arrays:inst_a.App.inst_buffered log
      in
      let misses = soundness_misses ~static:plan.Plan.per_array_deps edges in
      (* run B: scheduled execution *)
      let inst_b = make () in
      let plan_b =
        Orion.analyze_loop inst_b.App.inst_session inst_b.App.inst_loop
      in
      let workers =
        Orion_sim.Cluster.num_workers inst_b.App.inst_session.Orion.cluster
      in
      let depth =
        Option.value pipeline_depth
          ~default:inst_b.App.inst_session.Orion.default_pipeline_depth
      in
      let sched_result =
        match schedule_override with
        | Some ov -> forced_schedule ov inst_b ~workers ~depth
        | None ->
            let compiled =
              Orion.compile inst_b.App.inst_session ~plan:plan_b
                ~iter:inst_b.App.inst_iter ?pipeline_depth ()
            in
            Ok (compiled.Orion.schedule, Orion.model_of compiled)
      in
      match sched_result with
      | Error e -> Error e
      | Ok (sched, model) ->
          ignore
            (Executor.run inst_b.App.inst_session.Orion.cluster ~model sched
               (interp_body inst_b));
          let race = Race.build model ~workers sched in
          let violations = Race.check race ~ordered edges in
          (* run C: adversarial dependence-respecting witness replay of
             the same schedule object on a fresh instance *)
          let inst_c = make () in
          replay inst_c sched (Race.linearize race ~adversarial:true);
          let diffs other =
            List.map2
              (fun (name, arr_b) (_, arr_o) ->
                Dist_array.diff_arrays name arr_b arr_o)
              inst_b.App.inst_outputs other
          in
          let diff = diffs inst_c.App.inst_outputs in
          let serial_diff = diffs inst_a.App.inst_outputs in
          let tolerance = a.App.app_tolerance in
          let passed =
            misses = [] && violations = []
            && List.for_all (Dist_array.diff_ok ~tolerance) diff
          in
          Ok
            {
              r_app = app;
              r_strategy =
                (match schedule_override with
                | None -> Plan.strategy_to_string plan_b.Plan.strategy
                | Some ov -> "forced " ^ override_to_string ov);
              r_model = Domain_exec.model_to_string model;
              r_ordered = ordered;
              r_workers = workers;
              r_space_parts = sched.Schedule.space_parts;
              r_time_parts = sched.Schedule.time_parts;
              r_events = Access_log.length log;
              r_edges = List.length edges;
              r_observed =
                List.map
                  (fun (a, ds) -> (a, List.map fst ds))
                  (Depobserve.vectors_by_array edges);
              r_static =
                List.map
                  (fun (a, vs) -> (a, List.map Depvec.to_string vs))
                  plan.Plan.per_array_deps;
              r_misses = misses;
              r_violations = violations;
              r_diff = diff;
              r_serial_diff = serial_diff;
              r_tolerance = tolerance;
              r_passed = passed;
            })
