(* Static vs adaptive on the same backend, plus the equality story:
   an adaptive run is only trusted if a fresh static run replaying the
   same adopted schedule sequence (Replanner.scripted) lands on the
   same final arrays.  That separates "the re-planner helped" from
   "the migration changed the answer". *)

module App = Orion.App
module Engine = Orion.Engine
module Report = Orion.Report
module Bench = Orion_apps.Bench

type mode = [ `Parallel of int | `Distributed of int * Engine.transport ]

type run_result = {
  tb_app : string;
  tb_mode : string;
  tb_workers : int;
  tb_passes : int;
  tb_static_wall : float;
  tb_adaptive_wall : float;
  tb_speedup : float;
  tb_static_straggler : float;
  tb_adaptive_straggler : float;
  tb_static_crit : float;
  tb_adaptive_crit : float;
  tb_crit_speedup : float;
  tb_static_pass_walls : (int * float) list;
  tb_adaptive_pass_walls : (int * float) list;
  tb_decisions : Replanner.decision list;
  tb_adopted : int;
  tb_rejected : int;
  tb_adopted_unvalidated : int;
  tb_replay_equal : bool;
}

let straggler (r : Engine.report) =
  match r.Engine.ep_telemetry with
  | Some sm -> sm.Orion.Telemetry.sm_overall.Orion.Metrics.straggler_ratio
  | None -> 1.0

(* sum over passes of the max per-partition block compute: the
   parallel critical path.  Wall clock tracks it when every worker has
   its own core; on an oversubscribed host (CI runners, single-core
   containers) wall collapses to total work and hides what the
   re-balance bought, so the bench reports both *)
let critical_path (r : Engine.report) =
  match r.Engine.ep_telemetry with
  | None -> 0.0
  | Some sm ->
      let per_block = Hashtbl.create 64 in
      List.iter
        (fun (bc : Orion.Telemetry.block_cost) ->
          let key = (bc.Orion.Telemetry.bc_pass, bc.Orion.Telemetry.bc_space) in
          let prev = try Hashtbl.find per_block key with Not_found -> 0.0 in
          Hashtbl.replace per_block key
            (prev +. bc.Orion.Telemetry.bc_seconds))
        sm.Orion.Telemetry.sm_block_costs;
      let per_pass = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (pass, _space) s ->
          let prev = try Hashtbl.find per_pass pass with Not_found -> 0.0 in
          Hashtbl.replace per_pass pass (Float.max prev s))
        per_block;
      Hashtbl.fold (fun _pass m acc -> acc +. m) per_pass 0.0

let pass_walls (r : Engine.report) =
  match r.Engine.ep_telemetry with
  | None -> []
  | Some sm ->
      List.map
        (fun (pass, (m : Orion.Metrics.t)) ->
          (pass, m.Orion.Metrics.window_end -. m.Orion.Metrics.window_start))
        sm.Orion.Telemetry.sm_pass_metrics

let outputs_equal ~tolerance (a : App.instance) (b : App.instance) =
  List.for_all
    (fun (name, arr) ->
      match List.assoc_opt name b.App.inst_outputs with
      | None -> false
      | Some other ->
          Orion_verify.Verify.diff_ok ~tolerance
            (Orion_verify.Verify.diff_arrays name arr other))
    a.App.inst_outputs

let run_app ~(app : App.t) ~(mode : mode) ~passes ~scale ~num_machines
    ~workers_per_machine () =
  let make, engine_mode, mode_str, workers =
    match mode with
    | `Parallel d ->
        ( (fun () -> app.App.app_make ~scale ~num_machines ~workers_per_machine ()),
          `Parallel d,
          "parallel",
          d )
    | `Distributed (procs, transport) ->
        ( (fun () ->
            app.App.app_make ~scale ~num_machines:procs
              ~workers_per_machine:1 ()),
          `Distributed { Engine.procs; transport },
          "distributed",
          procs )
  in
  let obs_machines, obs_wpm =
    match mode with
    | `Parallel _ -> (num_machines, workers_per_machine)
    | `Distributed (procs, _) -> (procs, 1)
  in
  (* static baseline *)
  let s_inst = make () in
  let s_report =
    Engine.run s_inst.App.inst_session s_inst ~mode:engine_mode ~passes
      ~scale ~telemetry:true ()
  in
  (* adaptive: measurement-driven re-planner *)
  let a_inst = make () in
  let rp =
    Replanner.make ~app ~inst:a_inst ~scale ~num_machines:obs_machines
      ~workers_per_machine:obs_wpm ()
  in
  (* the serial dependence observation validates candidates of every
     run of this app; do it before the clock starts *)
  rp.Replanner.prepare ();
  let a_report =
    Engine.run a_inst.App.inst_session a_inst ~mode:engine_mode ~passes
      ~scale ~telemetry:true ~replanner:rp.Replanner.fn ()
  in
  let decisions = rp.Replanner.log () in
  let adopted_script = Replanner.adopted rp in
  (* replay the adopted schedule sequence on a fresh instance; the
     adaptive run must be indistinguishable from this static-by-script
     run, bitwise or within the app's declared tolerance *)
  let r_inst = make () in
  let replay = Replanner.scripted adopted_script in
  let _ =
    Engine.run r_inst.App.inst_session r_inst ~mode:engine_mode ~passes
      ~scale ~replanner:replay.Replanner.fn ()
  in
  let equal =
    outputs_equal ~tolerance:app.App.app_tolerance a_inst r_inst
  in
  let adopted = List.filter (fun d -> d.Replanner.d_adopted) decisions in
  {
    tb_app = app.App.app_name;
    tb_mode = mode_str;
    tb_workers = workers;
    tb_passes = passes;
    tb_static_wall = s_report.Engine.ep_wall_seconds;
    tb_adaptive_wall = a_report.Engine.ep_wall_seconds;
    tb_speedup =
      (if a_report.Engine.ep_wall_seconds > 0.0 then
         s_report.Engine.ep_wall_seconds /. a_report.Engine.ep_wall_seconds
       else 1.0);
    tb_static_straggler = straggler s_report;
    tb_adaptive_straggler = straggler a_report;
    tb_static_crit = critical_path s_report;
    tb_adaptive_crit = critical_path a_report;
    tb_crit_speedup =
      (let a = critical_path a_report and s = critical_path s_report in
       if a > 0.0 then s /. a else 1.0);
    tb_static_pass_walls = pass_walls s_report;
    tb_adaptive_pass_walls = pass_walls a_report;
    tb_decisions = decisions;
    tb_adopted = List.length adopted;
    tb_rejected =
      List.length (List.filter (fun d -> not d.Replanner.d_adopted) decisions);
    tb_adopted_unvalidated =
      List.length
        (List.filter
           (fun d ->
             (not d.Replanner.d_race_checked)
             || d.Replanner.d_race_violations > 0)
           adopted);
    tb_replay_equal = equal;
  }

let result_json (r : run_result) : Report.json =
  let open Report in
  let walls l =
    List
      (List.map
         (fun (p, w) -> Obj [ ("pass", Int p); ("wall_seconds", Float w) ])
         l)
  in
  Obj
    [
      ("app", Str r.tb_app);
      ("mode", Str r.tb_mode);
      ("workers", Int r.tb_workers);
      ("passes", Int r.tb_passes);
      ("static_wall_seconds", Float r.tb_static_wall);
      ("adaptive_wall_seconds", Float r.tb_adaptive_wall);
      ("speedup", Float r.tb_speedup);
      ("static_straggler", Float r.tb_static_straggler);
      ("adaptive_straggler", Float r.tb_adaptive_straggler);
      ("static_critical_path_seconds", Float r.tb_static_crit);
      ("adaptive_critical_path_seconds", Float r.tb_adaptive_crit);
      ("critical_path_speedup", Float r.tb_crit_speedup);
      ("static_pass_walls", walls r.tb_static_pass_walls);
      ("adaptive_pass_walls", walls r.tb_adaptive_pass_walls);
      ("decisions", List (List.map Replanner.decision_json r.tb_decisions));
      ("adopted", Int r.tb_adopted);
      ("rejected", Int r.tb_rejected);
      ("adopted_unvalidated", Int r.tb_adopted_unvalidated);
      ("replay_equal", Bool r.tb_replay_equal);
    ]

let pp_result fmt r =
  Fmt.pf fmt
    "%-8s %-11s %d workers: static %.4f s (straggler %.2f) -> adaptive %.4f \
     s (straggler %.2f), %.2fx wall, %.2fx critical path (%.4f -> %.4f s)@."
    r.tb_app r.tb_mode r.tb_workers r.tb_static_wall r.tb_static_straggler
    r.tb_adaptive_wall r.tb_adaptive_straggler r.tb_speedup r.tb_crit_speedup
    r.tb_static_crit r.tb_adaptive_crit;
  List.iter
    (fun d -> Fmt.pf fmt "  %s@." (Replanner.decision_to_string d))
    r.tb_decisions;
  Fmt.pf fmt "  %d adopted / %d kept; replay of adopted sequence %s@."
    r.tb_adopted r.tb_rejected
    (if r.tb_replay_equal then "matches the adaptive run"
     else "DIVERGES from the adaptive run")

let default_out = "BENCH_tune.json"

let to_row (r : run_result) : Bench.row =
  {
    Bench.row_app = r.tb_app;
    row_mode = r.tb_mode;
    row_workers = r.tb_workers;
    row_wall_seconds = r.tb_adaptive_wall;
    row_speedup = Some r.tb_speedup;
    row_loss = None;
    row_bytes_shipped = 0.0;
    row_bytes_full = 0.0;
    row_bytes_saved_fraction = 0.0;
    row_policy_by_array = [];
    row_ok = Some (r.tb_replay_equal && r.tb_adopted_unvalidated = 0);
  }

let run ?(apps = [ "slrskew" ]) ?(domains_list = [ 2 ]) ?(procs_list = [ 2 ])
    ?(passes = 3) ?(transport = `Unix) ~scale ~out
    ?(num_machines = 2) ?(workers_per_machine = 1) ?(print = true) () :
    Bench.row list =
  Orion_apps.Registry.ensure ();
  let selected =
    List.filter_map
      (fun n ->
        match App.find n with
        | Some a -> Some a
        | None ->
            Printf.eprintf "bench tune: unknown app %S (skipped)\n" n;
            None)
      apps
  in
  let modes : mode list =
    List.filter_map
      (fun d -> if d > 1 then Some (`Parallel d) else None)
      domains_list
    @ List.filter_map
        (fun p -> if p > 1 then Some (`Distributed (p, transport)) else None)
        procs_list
  in
  let results =
    List.concat_map
      (fun a ->
        List.map
          (fun mode ->
            let r =
              run_app ~app:a ~mode ~passes ~scale ~num_machines
                ~workers_per_machine ()
            in
            if print then print_string (Fmt.str "%a" pp_result r);
            r)
          modes)
      selected
  in
  let payload =
    Report.Obj
      [
        ("suite", Report.Str "tune");
        ("scale", Report.Float scale);
        ("passes", Report.Int passes);
        ("results", Report.List (List.map result_json results));
      ]
  in
  let rows = List.map to_row results in
  Bench.write_file out
    (Report.emit ~kind:"bench-tune" (Bench.with_rows payload rows));
  if print then Printf.printf "wrote %s\n" out;
  rows
