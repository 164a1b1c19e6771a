(** Distributed speedup benchmark: run each registered app's loop on
    the multi-process socket runtime ({!Orion_net.Dist_master}) at
    increasing worker counts, record wall-clock time and the bytes each
    DistArray shipped over the wire (packed, and as one [Marshal]ed
    record per write — the bytes-saved fraction comes from the same
    run), and check the results element-wise against a simulated
    ([`Sim]) execution of the same schedule.

    Used by [orion bench --mode speedup-distributed]; the JSON (kind
    ["bench-speedup-distributed"]) lands in [BENCH_distributed.json].
    Every [procs] count gets its own simulated reference built with the
    same cluster shape ([num_machines = procs], one worker per
    machine): schedule shape determines entry execution order, which
    order-sensitive apps are bitwise sensitive to. *)

module Report = Orion.Report
module App = Orion.App

type run = {
  run_procs : int;  (** worker processes requested *)
  run_wall_seconds : float;
  run_entries : int;
  run_bytes_shipped : float;  (** actual wire bytes of DistArray state *)
  run_bytes_full : float;  (** per-record [Marshal] bytes of the same traffic *)
  run_bytes_saved_fraction : float;  (** 1 - shipped/full *)
  run_bytes_by_array : (string * float) list;
  run_policy_by_array : (string * string) list;
  run_speedup : float;  (** wall(first procs count) / wall(n procs) *)
  run_straggler_ratio : float option;
      (** max/mean busy time over workers, from the merged wall-clock
          telemetry ([None] when telemetry was disabled) *)
  run_barrier_wait_fraction : float option;
      (** fraction of worker time spent in pass barriers, from
          telemetry *)
  run_max_abs_vs_sim : float;
  run_max_rel_vs_sim : float;
  run_equal_vs_sim : bool;  (** within the app's tolerance *)
  run_loss : float option;  (** final training loss, when the app has one *)
}

type app_result = {
  res_app : string;
  res_strategy : string;
  res_model : string;
  res_runs : run list;
}

let bench_app (app : App.t) ~procs_list ~passes ~scale ~transport : app_result
    =
  let strategy = ref "" and model = ref "" in
  let base_wall = ref None in
  let runs =
    List.map
      (fun procs ->
        let ref_inst =
          app.App.app_make ~scale ~num_machines:procs ~workers_per_machine:1 ()
        in
        ignore
          (Orion.Engine.run ref_inst.App.inst_session ref_inst ~mode:`Sim
             ~passes ());
        let inst =
          app.App.app_make ~scale ~num_machines:procs ~workers_per_machine:1 ()
        in
        let r =
          (* ~scale travels in the plan so workers rematerialize the
             same-size instance (a missing ~scale shows up as a
             schedule fingerprint mismatch at any scale <> 1) *)
          Orion.Engine.run inst.App.inst_session inst
            ~mode:(`Distributed { Orion.Engine.procs; transport })
            ~passes ~scale ()
        in
        strategy := r.Orion.Engine.ep_strategy;
        model := r.Orion.Engine.ep_model;
        let max_abs, max_rel =
          Speedup.diff_outputs inst.App.inst_outputs ref_inst.App.inst_outputs
        in
        let equal =
          match app.App.app_tolerance with
          | None -> max_abs = 0.0
          | Some tol -> max_rel <= tol
        in
        let base =
          match !base_wall with
          | Some b -> b
          | None ->
              base_wall := Some r.Orion.Engine.ep_wall_seconds;
              r.Orion.Engine.ep_wall_seconds
        in
        let overall =
          Option.map
            (fun sm -> sm.Orion.Telemetry.sm_overall)
            r.Orion.Engine.ep_telemetry
        in
        let shipped = r.Orion.Engine.ep_bytes_shipped
        and full = r.Orion.Engine.ep_bytes_full in
        {
          run_procs = procs;
          run_wall_seconds = r.Orion.Engine.ep_wall_seconds;
          run_entries = r.Orion.Engine.ep_entries;
          run_bytes_shipped = shipped;
          run_bytes_full = full;
          run_bytes_saved_fraction =
            (if full > 0.0 then 1.0 -. (shipped /. full) else 0.0);
          run_bytes_by_array = r.Orion.Engine.ep_bytes_by_array;
          run_policy_by_array = r.Orion.Engine.ep_policy_by_array;
          run_speedup = base /. Float.max r.Orion.Engine.ep_wall_seconds 1e-12;
          run_straggler_ratio =
            Option.map (fun m -> m.Orion.Metrics.straggler_ratio) overall;
          run_barrier_wait_fraction =
            Option.map (fun m -> m.Orion.Metrics.barrier_wait_fraction) overall;
          run_max_abs_vs_sim = max_abs;
          run_max_rel_vs_sim = max_rel;
          run_equal_vs_sim = equal;
          run_loss = Option.map (fun f -> f inst) app.App.app_loss;
        })
      procs_list
  in
  {
    res_app = app.App.app_name;
    res_strategy = !strategy;
    res_model = !model;
    res_runs = runs;
  }

let opt_float = function Some v -> Report.Float v | None -> Report.Null

let run_json (r : run) : Report.json =
  Report.Obj
    [
      ("procs", Report.Int r.run_procs);
      ("wall_seconds", Report.Float r.run_wall_seconds);
      ("entries", Report.Int r.run_entries);
      ("bytes_shipped", Report.Float r.run_bytes_shipped);
      ("bytes_full", Report.Float r.run_bytes_full);
      ("bytes_saved_fraction", Report.Float r.run_bytes_saved_fraction);
      ( "bytes_by_array",
        Report.Obj
          (List.map (fun (n, b) -> (n, Report.Float b)) r.run_bytes_by_array)
      );
      ( "policy_by_array",
        Report.Obj
          (List.map (fun (n, p) -> (n, Report.Str p)) r.run_policy_by_array)
      );
      ("speedup", Report.Float r.run_speedup);
      ("straggler_ratio", opt_float r.run_straggler_ratio);
      ("barrier_wait_fraction", opt_float r.run_barrier_wait_fraction);
      ("max_abs_vs_sim", Report.Float r.run_max_abs_vs_sim);
      ("max_rel_vs_sim", Report.Float r.run_max_rel_vs_sim);
      ("equal_vs_sim", Report.Bool r.run_equal_vs_sim);
      ("loss", opt_float r.run_loss);
    ]

let app_result_json (a : app_result) : Report.json =
  Report.Obj
    [
      ("app", Report.Str a.res_app);
      ("strategy", Report.Str a.res_strategy);
      ("model", Report.Str a.res_model);
      ("runs", Report.List (List.map run_json a.res_runs));
    ]

let run ?apps ?(procs_list = [ 1; 2; 4 ]) ?(passes = 3) ?(scale = 1.0)
    ?(transport = `Unix) () : app_result list * Report.json =
  Registry.ensure ();
  let selected =
    match apps with
    | None -> App.all ()
    | Some names ->
        List.filter_map
          (fun n ->
            match App.find n with
            | Some a -> Some a
            | None ->
                Printf.eprintf
                  "bench speedup-distributed: unknown app %S (skipped)\n" n;
                None)
          names
  in
  let results =
    List.map
      (fun app -> bench_app app ~procs_list ~passes ~scale ~transport)
      selected
  in
  let payload =
    Report.Obj
      [
        ("available_cores", Report.Int (Domain.recommended_domain_count ()));
        ( "transport",
          Report.Str (Orion.Engine.transport_to_string transport) );
        ("passes", Report.Int passes);
        ("scale", Report.Float scale);
        ("apps", Report.List (List.map app_result_json results));
      ]
  in
  (results, payload)

let print_results (results : app_result list) =
  List.iter
    (fun a ->
      Printf.printf "%s (%s, %s):\n" a.res_app a.res_strategy a.res_model;
      List.iter
        (fun r ->
          let tel =
            match (r.run_straggler_ratio, r.run_barrier_wait_fraction) with
            | Some s, Some b ->
                Printf.sprintf "  straggler %.2f  barrier %4.1f%%" s
                  (100.0 *. b)
            | _ -> ""
          in
          Printf.printf
            "  %d proc(s): %8.4fs  speedup %5.2fx  shipped %9.0f B (saved \
             %4.1f%%)  %s%s\n"
            r.run_procs r.run_wall_seconds r.run_speedup
            r.run_bytes_shipped
            (100.0 *. r.run_bytes_saved_fraction)
            (if r.run_equal_vs_sim then "results match sim"
             else
               Printf.sprintf "MISMATCH vs sim (max abs %.3e rel %.3e)"
                 r.run_max_abs_vs_sim r.run_max_rel_vs_sim)
            tel)
        a.res_runs)
    results
