(** Self-relative multicore speedup benchmark: run each registered app's
    parallel loop on the {!Orion.Engine} domain pool at increasing
    domain counts, record wall-clock time and the speedup relative to
    the 1-domain run, and check the results element-wise against a
    simulated ([`Sim]) execution of the same schedule.

    [`Sim] always runs through the tree-walking interpreter while the
    domain pool runs {!Orion.Compile} kernels (unless
    [ORION_NO_COMPILE] is set), so every [equal_vs_sim] check here is
    also a compiled-vs-interpreted differential test.

    Used by both [orion bench --mode speedup] and [bench/main.ml
    speedup]; the JSON (kind ["bench-speedup"]) lands in
    [BENCH_parallel.json].  Speedups are only meaningful on a machine
    with enough cores: runs where [domains] exceeds [available_cores]
    are flagged [oversubscribed] and excluded from each app's headline
    [best_speedup], so a single-core CI shard's flat numbers read as
    what they are. *)

module Report = Orion.Report
module App = Orion.App

type run = {
  run_domains : int;
  run_wall_seconds : float;
  run_entries : int;
  run_steals : int;
  run_bytes_shipped : float;  (** 0 for in-process runs *)
  run_bytes_full : float;  (** 0 for in-process runs *)
  run_speedup : float;  (** wall(1 domain) / wall(n domains) *)
  run_oversubscribed : bool;
      (** more domains than available cores — wall time measures
          scheduler thrash, not parallel speedup *)
  run_compiled : bool;  (** bodies ran as {!Orion.Compile} kernels *)
  run_straggler_ratio : float option;
      (** max/mean busy time over domains, from wall-clock telemetry
          ([None] when telemetry was disabled) *)
  run_barrier_wait_fraction : float option;
      (** fraction of domain time spent waiting, from telemetry *)
  run_max_abs_vs_sim : float;
  run_max_rel_vs_sim : float;
  run_equal_vs_sim : bool;  (** within the app's tolerance *)
}

type app_result = {
  res_app : string;
  res_strategy : string;
  res_model : string;
  res_runs : run list;
  res_best_speedup : float option;
      (** best speedup over the non-oversubscribed multi-domain runs;
          [None] when every multi-domain run was oversubscribed *)
  res_best_speedup_reason : string option;
      (** why [res_best_speedup] is [None], naming the core count *)
}

(* element-wise max |a-b| / max rel over an output array pair *)
let diff_outputs (a : (string * float Orion_dsm.Dist_array.t) list)
    (b : (string * float Orion_dsm.Dist_array.t) list) =
  let max_abs = ref 0.0 and max_rel = ref 0.0 in
  List.iter2
    (fun (_, arr_a) (_, arr_b) ->
      Orion_dsm.Dist_array.iter
        (fun key va ->
          let vb = Orion_dsm.Dist_array.get arr_b key in
          let abs = Float.abs (va -. vb) in
          let rel =
            abs /. Float.max (Float.max (Float.abs va) (Float.abs vb)) 1e-12
          in
          if abs > !max_abs then max_abs := abs;
          if rel > !max_rel then max_rel := rel)
        arr_a)
    a b;
  (!max_abs, !max_rel)

let bench_app (app : App.t) ~domains_list ~passes ~scale ~available_cores
    ~num_machines ~workers_per_machine : app_result =
  (* reference: the same schedule executed on the simulated cluster,
     always interpreted *)
  let ref_inst =
    app.App.app_make ~scale ~num_machines ~workers_per_machine ()
  in
  let ref_report =
    Orion.Engine.run ref_inst.App.inst_session ref_inst ~mode:`Sim ~passes ()
  in
  let base_wall = ref None in
  let runs =
    List.map
      (fun domains ->
        let inst =
          app.App.app_make ~scale ~num_machines ~workers_per_machine ()
        in
        let r =
          Orion.Engine.run inst.App.inst_session inst
            ~mode:(`Parallel domains) ~passes ()
        in
        let max_abs, max_rel =
          diff_outputs inst.App.inst_outputs ref_inst.App.inst_outputs
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
        {
          run_domains = domains;
          run_wall_seconds = r.Orion.Engine.ep_wall_seconds;
          run_entries = r.Orion.Engine.ep_entries;
          run_steals = r.Orion.Engine.ep_steals;
          run_bytes_shipped = r.Orion.Engine.ep_bytes_shipped;
          run_bytes_full = r.Orion.Engine.ep_bytes_full;
          run_speedup = base /. Float.max r.Orion.Engine.ep_wall_seconds 1e-12;
          run_oversubscribed = domains > available_cores;
          run_compiled = r.Orion.Engine.ep_compiled;
          run_straggler_ratio =
            Option.map (fun m -> m.Orion.Metrics.straggler_ratio) overall;
          run_barrier_wait_fraction =
            Option.map (fun m -> m.Orion.Metrics.barrier_wait_fraction) overall;
          run_max_abs_vs_sim = max_abs;
          run_max_rel_vs_sim = max_rel;
          run_equal_vs_sim = equal;
        })
      domains_list
  in
  let best_speedup =
    List.fold_left
      (fun acc r ->
        if r.run_domains > 1 && not r.run_oversubscribed then
          Some (Float.max r.run_speedup (Option.value acc ~default:0.0))
        else acc)
      None runs
  in
  let best_speedup_reason =
    match best_speedup with
    | Some _ -> None
    | None ->
        Some
          (Printf.sprintf
             "all multi-domain runs oversubscribed (available_cores=%d)"
             available_cores)
  in
  {
    res_app = app.App.app_name;
    res_strategy = ref_report.Orion.Engine.ep_strategy;
    res_model = ref_report.Orion.Engine.ep_model;
    res_runs = runs;
    res_best_speedup = best_speedup;
    res_best_speedup_reason = best_speedup_reason;
  }

let run_json (r : run) : Report.json =
  Report.Obj
    [
      ("domains", Report.Int r.run_domains);
      ("wall_seconds", Report.Float r.run_wall_seconds);
      ("entries", Report.Int r.run_entries);
      ("steals", Report.Int r.run_steals);
      ("bytes_shipped", Report.Float r.run_bytes_shipped);
      ("bytes_full", Report.Float r.run_bytes_full);
      ("speedup", Report.Float r.run_speedup);
      ("oversubscribed", Report.Bool r.run_oversubscribed);
      ("compiled", Report.Bool r.run_compiled);
      ( "straggler_ratio",
        match r.run_straggler_ratio with
        | Some v -> Report.Float v
        | None -> Report.Null );
      ( "barrier_wait_fraction",
        match r.run_barrier_wait_fraction with
        | Some v -> Report.Float v
        | None -> Report.Null );
      ("max_abs_vs_sim", Report.Float r.run_max_abs_vs_sim);
      ("max_rel_vs_sim", Report.Float r.run_max_rel_vs_sim);
      ("equal_vs_sim", Report.Bool r.run_equal_vs_sim);
    ]

let app_result_json (a : app_result) : Report.json =
  Report.Obj
    [
      ("app", Report.Str a.res_app);
      ("strategy", Report.Str a.res_strategy);
      ("model", Report.Str a.res_model);
      ( "best_speedup",
        match a.res_best_speedup with
        | Some s -> Report.Float s
        | None -> Report.Null );
      ( "best_speedup_reason",
        match a.res_best_speedup_reason with
        | Some reason -> Report.Str reason
        | None -> Report.Null );
      ("runs", Report.List (List.map run_json a.res_runs));
    ]

(** Run the speedup benchmark over [apps] (default: every registered
    app) at each domain count of [domains_list], [passes] passes per
    measurement, datasets enlarged by [scale].  Returns the results
    plus the un-enveloped ["bench-speedup"] payload ({!Bench.run}
    envelopes and writes it). *)
let run ?apps ?(domains_list = [ 1; 2; 4; 8 ]) ?(passes = 3) ?(scale = 1.0)
    ?(num_machines = 2) ?(workers_per_machine = 2) () :
    app_result list * Report.json =
  Registry.ensure ();
  let available_cores = Domain.recommended_domain_count () in
  let selected =
    match apps with
    | None -> App.all ()
    | Some names ->
        List.filter_map
          (fun n ->
            match App.find n with
            | Some a -> Some a
            | None ->
                Printf.eprintf "bench speedup: unknown app %S (skipped)\n" n;
                None)
          names
  in
  let results =
    List.map
      (fun app ->
        bench_app app ~domains_list ~passes ~scale ~available_cores
          ~num_machines ~workers_per_machine)
      selected
  in
  let payload =
    Report.Obj
      [
        ("available_cores", Report.Int available_cores);
        ("num_machines", Report.Int num_machines);
        ("workers_per_machine", Report.Int workers_per_machine);
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
            "  %d domain(s): %8.4fs  speedup %5.2fx%s  steals %4d  %s  %s%s\n"
            r.run_domains r.run_wall_seconds r.run_speedup
            (if r.run_oversubscribed then " (oversubscribed)" else "")
            r.run_steals
            (if r.run_compiled then "compiled" else "interpreted")
            (if r.run_equal_vs_sim then "results match sim"
             else
               Printf.sprintf "MISMATCH vs sim (max abs %.3e rel %.3e)"
                 r.run_max_abs_vs_sim r.run_max_rel_vs_sim)
            tel)
        a.res_runs;
      match (a.res_best_speedup, a.res_best_speedup_reason) with
      | Some s, _ -> Printf.printf "  best speedup (within cores): %.2fx\n" s
      | None, reason ->
          let reason =
            Option.value reason ~default:"all multi-domain runs oversubscribed"
          in
          Printf.printf "  best speedup: n/a (%s)\n" reason;
          Printf.eprintf "warning: %s: no meaningful speedup — %s\n" a.res_app
            reason)
    results
