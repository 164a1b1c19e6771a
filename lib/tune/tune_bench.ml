(* Static vs adaptive on the same backend, plus the equality story:
   an adaptive run is only trusted if a fresh static run replaying the
   same adopted schedule sequence (Replanner.scripted) lands on the
   same final arrays.  That separates "the re-planner helped" from
   "the migration changed the answer". *)

module App = Orion.App
module Engine = Orion.Engine
module Report = Orion.Report
module Bench = Orion_apps.Bench

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
  tb_row : Bench.row;
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

let run_app ~(app : App.t) ~(mode : Engine.mode) ~passes ~scale ~num_machines
    ~workers_per_machine () =
  let make () =
    Bench.make_instance app ~scale ~num_machines ~workers_per_machine mode
  in
  let obs_machines, obs_wpm =
    Bench.shape ~num_machines ~workers_per_machine mode
  in
  (* static baseline *)
  let s_inst = make () in
  let s_report =
    Engine.run s_inst.App.inst_session s_inst ~mode ~passes
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
    Engine.run a_inst.App.inst_session a_inst ~mode ~passes
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
    Engine.run r_inst.App.inst_session r_inst ~mode ~passes
      ~scale ~replanner:replay.Replanner.fn ()
  in
  let replay_check =
    Bench.check_outputs ~tolerance:app.App.app_tolerance a_inst r_inst
  in
  let adopted = List.filter (fun d -> d.Replanner.d_adopted) decisions in
  let unvalidated =
    List.length
      (List.filter
         (fun d ->
           (not d.Replanner.d_race_checked)
           || d.Replanner.d_race_violations > 0)
         adopted)
  in
  let speedup =
    if a_report.Engine.ep_wall_seconds > 0.0 then
      s_report.Engine.ep_wall_seconds /. a_report.Engine.ep_wall_seconds
    else 1.0
  in
  (* the adaptive run's row: its reference is the static replay, and an
     unvalidated adoption fails it too *)
  let row =
    {
      (Bench.row_of_report a_report ~passes
         ~loss:(Option.map (fun f -> f a_inst) app.App.app_loss)
         ~check:
           {
             replay_check with
             Bench.ck_ok = replay_check.Bench.ck_ok && unvalidated = 0;
           })
      with
      Bench.row_speedup = Some speedup;
    }
  in
  {
    tb_app = app.App.app_name;
    tb_mode = row.Bench.row_mode;
    tb_workers = row.Bench.row_workers;
    tb_passes = passes;
    tb_static_wall = s_report.Engine.ep_wall_seconds;
    tb_adaptive_wall = a_report.Engine.ep_wall_seconds;
    tb_speedup = speedup;
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
    tb_adopted_unvalidated = unvalidated;
    tb_replay_equal = replay_check.Bench.ck_ok;
    tb_row = row;
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

let run ?(apps = [ "slrskew" ]) ?(domains_list = [ 2 ]) ?(procs_list = [ 2 ])
    ?(passes = 3) ?(transport = `Unix) ~scale ~out ?(num_machines = 2)
    ?(workers_per_machine = 1) ?(print = true) () : Bench.row list =
  let modes : Engine.mode list =
    List.filter_map
      (fun d -> if d > 1 then Some (`Parallel d) else None)
      domains_list
    @ List.filter_map
        (fun procs ->
          if procs > 1 then Some (`Distributed { Engine.procs; transport })
          else None)
        procs_list
  in
  let results =
    List.concat_map
      (fun app ->
        List.map
          (fun mode ->
            let r =
              run_app ~app ~mode ~passes ~scale ~num_machines
                ~workers_per_machine ()
            in
            if print then print_string (Fmt.str "%a" pp_result r);
            r)
          modes)
      (Bench.select_apps ~suite:"tune" (Some apps))
  in
  let rows = List.map (fun r -> r.tb_row) results in
  Bench.write ~out ~kind:"bench-tune"
    (Bench.params ~passes ~scale ~transport
    @ [ ("results", Report.List (List.map result_json results)) ])
    rows;
  if print then Printf.printf "wrote %s\n" out;
  rows
