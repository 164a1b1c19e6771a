(* One harness for every bench suite: build an instance of the right
   shape, run it, check its outputs against a `Sim run of the same
   shape, and record a row.  The suites differ only in which backend
   the worker counts select and in whether the run is one measurement
   or a pass-at-a-time curve. *)

module Report = Orion.Report
module App = Orion.App
module Engine = Orion.Engine
module Clock = Orion_obs.Clock
module Dist_array = Orion_dsm.Dist_array

type mode = [ `Speedup | `Speedup_distributed | `Convergence ]

let mode_to_string = function
  | `Speedup -> "speedup"
  | `Speedup_distributed -> "speedup-distributed"
  | `Convergence -> "convergence"

let default_out = function
  | `Speedup -> "BENCH_parallel.json"
  | `Speedup_distributed -> "BENCH_distributed.json"
  | `Convergence -> "BENCH_convergence.json"

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

let scale_env = "ORION_BENCH_SCALE"

(* [nan] or a non-positive factor would build a degenerate dataset and
   still stamp the row with it, so reject rather than default *)
let env_scale () =
  match Sys.getenv_opt scale_env with
  | None | Some "" -> 1.0
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some f when Float.is_finite f && f > 0.0 -> f
      | _ ->
          invalid_arg
            (Printf.sprintf "%s=%S: expected a positive, finite scale factor"
               scale_env s))

let shape ~num_machines ~workers_per_machine : Engine.mode -> int * int =
  function
  | `Distributed { Engine.procs; _ } -> (procs, 1)
  | `Sim | `Parallel _ -> (num_machines, workers_per_machine)

let instantiate (app : App.t) ~scale (num_machines, workers_per_machine) =
  app.App.app_make ~scale ~num_machines ~workers_per_machine ()

let make_instance app ~scale ~num_machines ~workers_per_machine mode =
  instantiate app ~scale (shape ~num_machines ~workers_per_machine mode)

let select_apps ~suite names =
  Registry.ensure ();
  List.filter_map
    (fun n ->
      match App.find n with
      | Some a -> Some a
      | None ->
          Printf.eprintf "bench %s: unknown app %S (skipped)\n" suite n;
          None)
    (Option.value names ~default:(App.names ()))

(* ------------------------------------------------------------------ *)
(* Reference checks                                                    *)
(* ------------------------------------------------------------------ *)

type check = { ck_max_abs : float; ck_max_rel : float; ck_ok : bool }

let check_outputs ~tolerance (a : App.instance) (b : App.instance) =
  List.fold_left2
    (fun ck (name, x) (_, y) ->
      let d = Dist_array.diff_arrays name x y in
      {
        ck_max_abs = Float.max ck.ck_max_abs d.Dist_array.d_max_abs;
        ck_max_rel = Float.max ck.ck_max_rel d.Dist_array.d_max_rel;
        ck_ok = ck.ck_ok && Dist_array.diff_ok ~tolerance d;
      })
    { ck_max_abs = 0.0; ck_max_rel = 0.0; ck_ok = true }
    a.App.inst_outputs b.App.inst_outputs

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type row = {
  row_app : string;
  row_mode : string;
  row_workers : int;
  row_passes : int;
  row_strategy : string;
  row_compiled : bool;
  row_wall_seconds : float;
  row_speedup : float option;
  row_oversubscribed : bool;
  row_loss : float option;
  row_straggler_ratio : float option;
  row_barrier_wait_fraction : float option;
  row_bytes_shipped : float;
  row_bytes_full : float;
  row_policy_by_array : (string * string) list;
  row_check : check;
}

let row_of_report (r : Engine.report) ~passes ~loss ~check =
  let mode, workers =
    match r.Engine.ep_mode with
    | `Sim -> ("sim", 1)
    | `Parallel d -> ("parallel", d)
    | `Distributed { Engine.procs; _ } -> ("distributed", procs)
  in
  let overall =
    Option.map
      (fun sm -> sm.Orion.Telemetry.sm_overall)
      r.Engine.ep_telemetry
  in
  {
    row_app = r.Engine.ep_app;
    row_mode = mode;
    row_workers = workers;
    row_passes = passes;
    row_strategy = r.Engine.ep_strategy;
    row_compiled = r.Engine.ep_compiled;
    row_wall_seconds = r.Engine.ep_wall_seconds;
    row_speedup = None;
    row_oversubscribed = workers > Domain.recommended_domain_count ();
    row_loss = loss;
    row_straggler_ratio =
      Option.map (fun m -> m.Orion.Metrics.straggler_ratio) overall;
    row_barrier_wait_fraction =
      Option.map (fun m -> m.Orion.Metrics.barrier_wait_fraction) overall;
    row_bytes_shipped = r.Engine.ep_bytes_shipped;
    row_bytes_full = r.Engine.ep_bytes_full;
    row_policy_by_array = r.Engine.ep_policy_by_array;
    row_check = check;
  }

let saved_fraction r =
  if r.row_bytes_full > 0.0 then
    1.0 -. (r.row_bytes_shipped /. r.row_bytes_full)
  else 0.0

let opt_float = function Some v -> Report.Float v | None -> Report.Null

let row_json (r : row) : Report.json =
  Report.Obj
    [
      ("app", Report.Str r.row_app);
      ("mode", Report.Str r.row_mode);
      ("workers", Report.Int r.row_workers);
      ("passes", Report.Int r.row_passes);
      ("strategy", Report.Str r.row_strategy);
      ("compiled", Report.Bool r.row_compiled);
      ("wall_seconds", Report.Float r.row_wall_seconds);
      ("speedup", opt_float r.row_speedup);
      ("oversubscribed", Report.Bool r.row_oversubscribed);
      ("loss", opt_float r.row_loss);
      ("straggler_ratio", opt_float r.row_straggler_ratio);
      ("barrier_wait_fraction", opt_float r.row_barrier_wait_fraction);
      ("bytes_shipped", Report.Float r.row_bytes_shipped);
      ("bytes_full", Report.Float r.row_bytes_full);
      ("bytes_saved_fraction", Report.Float (saved_fraction r));
      ( "policy_by_array",
        Report.Obj
          (List.map (fun (n, p) -> (n, Report.Str p)) r.row_policy_by_array)
      );
      ("max_abs_vs_ref", Report.Float r.row_check.ck_max_abs);
      ("max_rel_vs_ref", Report.Float r.row_check.ck_max_rel);
      ("ok", Report.Bool r.row_check.ck_ok);
    ]

let row_label r =
  Printf.sprintf "%s %s x%d, %d pass(es)" r.row_app r.row_mode r.row_workers
    r.row_passes

let print_row r =
  let opt fmt = Option.fold ~none:"" ~some:(Printf.sprintf fmt) in
  Printf.printf "%-8s %-11s x%-2d %2d pass(es) %9.4f s%s%s%s%s%s  %s  %s\n"
    r.row_app r.row_mode r.row_workers r.row_passes r.row_wall_seconds
    (opt "  speedup %5.2fx" r.row_speedup)
    (if r.row_oversubscribed then " (oversubscribed)" else "")
    (opt "  loss %.6g" r.row_loss)
    (if r.row_bytes_shipped > 0.0 then
       Printf.sprintf "  shipped %.0f B (saved %4.1f%%)" r.row_bytes_shipped
         (100.0 *. saved_fraction r)
     else "")
    (match (r.row_straggler_ratio, r.row_barrier_wait_fraction) with
    | Some s, Some b ->
        Printf.sprintf "  straggler %.2f  barrier %4.1f%%" s (100.0 *. b)
    | _ -> "")
    (if r.row_compiled then "compiled" else "interpreted")
    (if r.row_check.ck_ok then "results match sim"
     else
       Printf.sprintf "MISMATCH vs sim (max abs %.3e rel %.3e)"
         r.row_check.ck_max_abs r.row_check.ck_max_rel)

let params ~passes ~scale ~transport =
  [
    ("available_cores", Report.Int (Domain.recommended_domain_count ()));
    ("passes", Report.Int passes);
    ("scale", Report.Float scale);
    ("transport", Report.Str (Engine.transport_to_string transport));
  ]

let write ~out ~kind fields rows =
  let payload =
    Report.Obj (fields @ [ ("rows", Report.List (List.map row_json rows)) ])
  in
  let oc = open_out out in
  output_string oc (Report.emit ~kind payload);
  output_char oc '\n';
  close_out oc

let exit_code rows =
  let failed = List.filter (fun r -> not r.row_check.ck_ok) rows in
  List.iter
    (fun r ->
      Printf.eprintf
        "bench: %s failed its reference check (max abs %.3e, max rel %.3e)\n"
        (row_label r) r.row_check.ck_max_abs r.row_check.ck_max_rel)
    failed;
  if failed = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)
(* ------------------------------------------------------------------ *)

let loss (app : App.t) inst = Option.map (fun f -> f inst) app.App.app_loss

(* One run of [passes] passes under [mode], checked against the `Sim
   reference of the same shape.  [refs] memoizes references by shape:
   every domain count shares one, each proc count has its own. *)
let measure ~refs (app : App.t) ~mode ~passes ~scale ~num_machines
    ~workers_per_machine =
  let sh = shape ~num_machines ~workers_per_machine mode in
  let reference =
    match Hashtbl.find_opt refs sh with
    | Some inst -> inst
    | None ->
        let inst = instantiate app ~scale sh in
        ignore (Engine.run inst.App.inst_session inst ~mode:`Sim ~passes ());
        Hashtbl.add refs sh inst;
        inst
  in
  let inst = instantiate app ~scale sh in
  (* ~scale travels in the plan so distributed workers rematerialize
     the same-size instance *)
  let r = Engine.run inst.App.inst_session inst ~mode ~passes ~scale () in
  row_of_report r ~passes ~loss:(loss app inst)
    ~check:(check_outputs ~tolerance:app.App.app_tolerance inst reference)

(* Pass-at-a-time: one row per pass boundary (pass 0 is the initial
   state), wall time cumulative on the monotonic clock.  The reference
   steps in lockstep, outside the clock.  Between passes the app's
   [app_prepare_pass] folds buffered accumulators into the model, so
   buffer-trained apps (SLR) actually descend. *)
let curve (app : App.t) ~mode ~passes ~scale ~num_machines
    ~workers_per_machine =
  let sh = shape ~num_machines ~workers_per_machine mode in
  let inst = instantiate app ~scale sh in
  let reference = instantiate app ~scale sh in
  let prepare i = Option.iter (fun f -> f i) app.App.app_prepare_pass in
  let check () =
    check_outputs ~tolerance:app.App.app_tolerance inst reference
  in
  (* the clock stops after the loss evaluation, so each point's x
     value is honest about when its y value existed *)
  let t = Clock.now () in
  let loss0 = loss app inst in
  let wall0 = Clock.elapsed t in
  let check0 = check () in
  let wall = ref wall0 in
  let shipped = ref 0.0 and full = ref 0.0 in
  let rows =
    List.init passes (fun p ->
        let t = Clock.now () in
        let r =
          Engine.run inst.App.inst_session inst ~mode ~passes:1 ~scale
            ~telemetry:true ()
        in
        prepare inst;
        let l = loss app inst in
        wall := !wall +. Clock.elapsed t;
        ignore
          (Engine.run reference.App.inst_session reference ~mode:`Sim
             ~passes:1 ());
        prepare reference;
        shipped := !shipped +. r.Engine.ep_bytes_shipped;
        full := !full +. r.Engine.ep_bytes_full;
        {
          (row_of_report r ~passes:(p + 1) ~loss:l ~check:(check ())) with
          row_wall_seconds = !wall;
          row_bytes_shipped = !shipped;
          row_bytes_full = !full;
        })
  in
  match rows with
  | [] -> []
  | first :: _ ->
      {
        first with
        row_passes = 0;
        row_wall_seconds = wall0;
        row_loss = loss0;
        row_straggler_ratio = None;
        row_barrier_wait_fraction = None;
        row_bytes_shipped = 0.0;
        row_bytes_full = 0.0;
        row_check = check0;
      }
      :: rows

(* speedup against the app's 1-worker row *)
let with_speedup rows =
  match List.find_opt (fun r -> r.row_workers = 1) rows with
  | None -> rows
  | Some base ->
      List.map
        (fun r ->
          {
            r with
            row_speedup =
              Some
                (base.row_wall_seconds /. Float.max r.row_wall_seconds 1e-12);
          })
        rows

let kind_of_mode m = "bench-" ^ mode_to_string m

let run ~(mode : mode) ~scale ~out ?apps ?(domains_list = [ 1; 2; 4; 8 ])
    ?(procs_list = [ 1; 2; 4 ]) ?(passes = 3) ?(transport = `Unix)
    ?(num_machines = 2) ?(workers_per_machine = 2) ?(print = true) () :
    row list =
  let suite = mode_to_string mode in
  let apps = select_apps ~suite apps in
  let scaling counts engine_mode app =
    let refs = Hashtbl.create 4 in
    with_speedup
      (List.map
         (fun n ->
           measure ~refs app ~mode:(engine_mode n) ~passes ~scale ~num_machines
             ~workers_per_machine)
         counts)
  in
  let app_rows (app : App.t) =
    match mode with
    | `Speedup -> scaling domains_list (fun d -> `Parallel d) app
    | `Speedup_distributed ->
        scaling procs_list
          (fun procs -> `Distributed { Engine.procs; transport })
          app
    | `Convergence when Option.is_none app.App.app_loss ->
        Printf.eprintf "bench %s: app %s declares no loss (skipped)\n" suite
          app.App.app_name;
        []
    | `Convergence ->
        List.concat_map
          (fun d ->
            let engine_mode = if d <= 1 then `Sim else `Parallel d in
            curve app ~mode:engine_mode ~passes ~scale ~num_machines
              ~workers_per_machine)
          domains_list
  in
  let rows =
    List.concat_map
      (fun app ->
        let rows = app_rows app in
        if print then List.iter print_row rows;
        rows)
      apps
  in
  write ~out ~kind:(kind_of_mode mode) (params ~passes ~scale ~transport) rows;
  if print then Printf.printf "wrote %s\n" out;
  rows
