(* The per-table / per-figure experiment harness (see DESIGN.md §4 and
   EXPERIMENTS.md).  Each [figXX]/[tableX] function regenerates the
   rows/series of the corresponding table or figure in the paper's
   evaluation section on scaled-down synthetic datasets.

   Scale and worker counts are reduced so the full harness runs in
   minutes on one machine; set ORION_BENCH_SCALE=2 (or more) to grow
   the datasets. *)

open Orion_baselines
open Orion_apps

let scale = Bench.env_scale ()

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_trajectory_table ~metric_name trajectories =
  Printf.printf "%-28s" "iteration";
  List.iter (fun t -> Printf.printf " %22s" t.Trajectory.system) trajectories;
  Printf.printf "\n";
  let max_iters =
    List.fold_left
      (fun acc t -> max acc (List.length t.Trajectory.points))
      0 trajectories
  in
  for i = 0 to max_iters - 1 do
    Printf.printf "%-28d" i;
    List.iter
      (fun t ->
        match List.nth_opt t.Trajectory.points i with
        | Some p -> Printf.printf " %22.6g" p.Trajectory.metric
        | None -> Printf.printf " %22s" "-")
      trajectories;
    Printf.printf "\n"
  done;
  Printf.printf "%-28s" (Printf.sprintf "final sim time (s)");
  List.iter
    (fun t -> Printf.printf " %22.3f" (Trajectory.final_time t))
    trajectories;
  Printf.printf "\n";
  ignore metric_name

let print_time_series ~metric_name trajectories =
  Printf.printf "# %s over simulated time\n" metric_name;
  List.iter
    (fun t ->
      Printf.printf "%-24s:" t.Trajectory.system;
      List.iter
        (fun p -> Printf.printf " (%.2fs, %.6g)" p.Trajectory.time p.Trajectory.metric)
        t.Trajectory.points;
      Printf.printf "\n")
    trajectories

(* shared datasets (lazily built once) *)
let netflix = lazy (Orion_data.Ratings.netflix_like ~scale ())
let nytimes = lazy (Orion_data.Corpus.nytimes_like ~scale ())
let clueweb = lazy (Orion_data.Corpus.clueweb_like ~scale ())
let kdd = lazy (Orion_data.Sparse_features.kdd_like ~scale:(scale *. 0.2) ())

(* modeled per-sample costs (documented in EXPERIMENTS.md §calibration) *)
let mf_rank = 16
let lda_topics = 20
let mf_cost = 4e-8 *. float_of_int mf_rank
let lda_cost = 1.6e-8 *. float_of_int lda_topics

let mf_epochs = 12
let lda_epochs = 10

(* the worker counts for convergence figures (paper: 12 machines x 32
   workers; scaled down to keep per-worker state affordable) *)
let conv_machines = 8
let conv_wpm = 2
let conv_workers = conv_machines * conv_wpm

let orion_mf_config =
  {
    Orion_mf.default_config with
    num_machines = conv_machines;
    workers_per_machine = conv_wpm;
    rank = mf_rank;
    step_size = 0.005;
    alpha = 0.05;
    epochs = mf_epochs;
    per_entry_cost = mf_cost;
  }

let bosen_mf_config =
  {
    Bosen_mf.default_config with
    num_machines = conv_machines;
    workers_per_machine = conv_wpm;
    rank = mf_rank;
    step_size = 0.005 /. float_of_int conv_workers;
    alpha = 0.05;
    epochs = mf_epochs;
    per_entry_cost = mf_cost;
  }

let orion_lda_config =
  {
    Orion_lda.default_config with
    num_machines = conv_machines;
    workers_per_machine = conv_wpm;
    num_topics = lda_topics;
    epochs = lda_epochs;
    per_token_cost = lda_cost;
  }

let bosen_lda_config =
  {
    Bosen_lda.default_config with
    num_machines = conv_machines;
    workers_per_machine = conv_wpm;
    num_topics = lda_topics;
    epochs = lda_epochs;
    per_token_cost = lda_cost;
  }

(* ------------------------------------------------------------------ *)
(* Table 1: qualitative system comparison                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: systems for offline machine learning training";
  let rows =
    [
      ("Dataflow", "Spark, DryadLINQ", "no", "dataflow");
      ("Dataflow w/ mutable state", "TensorFlow", "yes", "dataflow");
      ("Parameter Server", "parameter server, Bosen", "yes", "imperative");
      ("PS w/ scheduling", "STRADS", "yes", "imperative");
      ("Graph Processing", "PowerGraph, PowerLyra", "limited", "vertex");
      ("Orion (this repo)", "Orion", "yes", "imperative");
    ]
  in
  Printf.printf "%-28s %-28s %-8s %-12s\n" "Category" "Examples" "DSM"
    "Paradigm";
  List.iter
    (fun (a, b, c, d) -> Printf.printf "%-28s %-28s %-8s %-12s\n" a b c d)
    rows

(* ------------------------------------------------------------------ *)
(* Table 2: applications and their derived parallelizations            *)
(* ------------------------------------------------------------------ *)

let count_lines s =
  List.length
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' s))

let table2 () =
  section "Table 2: ML applications parallelized by Orion";
  Printf.printf "%-14s %-28s %-26s %5s  %s\n" "Acronym" "Model"
    "Learning algorithm" "LoC" "Derived parallelization";
  let analyze_with register script =
    let session =
      Orion.create_session ~num_machines:2 ~workers_per_machine:2 ()
    in
    register session;
    match Orion.analyze_script session script with
    | plan :: _ ->
        let s = Orion.Plan.strategy_to_string plan.Orion.Plan.strategy in
        if plan.Orion.Plan.ordered then s ^ " ordered" else s ^ " unordered"
    | [] -> "-"
  in
  let data = Lazy.force netflix in
  let mf_register session =
    let model =
      Sgd_mf.init_model ~rank:mf_rank ~num_users:data.num_users
        ~num_items:data.num_items ()
    in
    Sgd_mf.register_arrays session ~ratings:data.ratings model
  in
  let corpus = Lazy.force nytimes in
  let lda_register session =
    let model = Lda.init_model ~num_topics:lda_topics ~corpus () in
    Lda.register_arrays session ~tokens:corpus.tokens model
  in
  let slr_data = Lazy.force kdd in
  let slr_register session =
    let model = Slr.init_model ~num_features:slr_data.num_features () in
    Slr.register_arrays session ~data:slr_data model
  in
  let gbt_register session =
    Orion.register_meta session ~name:"feature_index" ~dims:[| 64 |] ~count:64 ();
    Orion.register_meta session ~name:"split_gain" ~dims:[| 64 |] ()
  in
  List.iter
    (fun (acr, model, algo, loc, strat) ->
      Printf.printf "%-14s %-28s %-26s %5d  %s\n" acr model algo loc strat)
    [
      ( "SGD MF",
        "Matrix Factorization",
        "SGD",
        count_lines Sgd_mf.script,
        analyze_with mf_register Sgd_mf.script );
      ( "SGD MF AdaRev",
        "Matrix Factorization",
        "SGD w/ Adaptive Revision",
        count_lines Sgd_mf.script + 6,
        analyze_with mf_register Sgd_mf.script );
      ( "SLR",
        "Sparse Logistic Regression",
        "SGD",
        count_lines Slr.script,
        analyze_with slr_register Slr.script );
      ( "SLR AdaRev",
        "Sparse Logistic Regression",
        "SGD w/ Adaptive Revision",
        count_lines Slr.script + 6,
        analyze_with slr_register Slr.script );
      ( "LDA",
        "Latent Dirichlet Allocation",
        "Collapsed Gibbs Sampling",
        count_lines Lda.script,
        analyze_with lda_register Lda.script );
      ( "GBT",
        "Gradient Boosted Tree",
        "Gradient Boosting",
        count_lines Gbt.script,
        analyze_with gbt_register Gbt.script );
    ]

(* ------------------------------------------------------------------ *)
(* Fig 9a: time per iteration vs number of workers                     *)
(* ------------------------------------------------------------------ *)

let fig9a () =
  section "Fig 9a: time per iteration, serial vs Orion (workers sweep)";
  let data = Lazy.force netflix in
  let corpus = Lazy.force nytimes in
  let serial_mf =
    Trajectory.avg_time_per_iteration
      (Orion_mf.train_serial
         ~config:{ orion_mf_config with epochs = 2 }
         ~data ())
  in
  let serial_lda =
    Trajectory.avg_time_per_iteration
      (Orion_lda.train_serial
         ~config:{ orion_lda_config with epochs = 2 }
         ~corpus ())
  in
  Printf.printf "%-10s %18s %18s\n" "workers" "SGD MF (s/iter)" "LDA (s/iter)";
  Printf.printf "%-10s %18.4f %18.4f\n" "serial" serial_mf serial_lda;
  List.iter
    (fun workers ->
      let machines = max 1 (workers / 32) in
      let wpm = workers / machines in
      let mf =
        (Orion_mf.train
           ~config:
             {
               orion_mf_config with
               num_machines = machines;
               workers_per_machine = wpm;
               epochs = 2;
             }
           ~data ())
          .trajectory
      in
      let lda =
        (Orion_lda.train
           ~config:
             {
               orion_lda_config with
               num_machines = machines;
               workers_per_machine = wpm;
               epochs = 2;
             }
           ~corpus ())
          .trajectory
      in
      Printf.printf "%-10d %18.4f %18.4f\n" workers
        (Trajectory.avg_time_per_iteration mf)
        (Trajectory.avg_time_per_iteration lda))
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 384 ]

(* ------------------------------------------------------------------ *)
(* Fig 9b / 9c: per-iteration convergence of parallelization schemes   *)
(* ------------------------------------------------------------------ *)

let fig9b () =
  section
    "Fig 9b: SGD MF (netflix-like) convergence per iteration \
     (serial / data-parallel / dep-aware unordered / dep-aware ordered)";
  let data = Lazy.force netflix in
  let serial = Orion_mf.train_serial ~config:orion_mf_config ~data () in
  let dp, _ = Bosen_mf.train ~config:bosen_mf_config ~data () in
  let unord = (Orion_mf.train ~config:orion_mf_config ~data ()).trajectory in
  let ord =
    (Orion_mf.train ~config:{ orion_mf_config with ordered = true } ~data ())
      .trajectory
  in
  print_trajectory_table ~metric_name:"training loss"
    [ serial; dp; unord; ord ]

let fig9c () =
  section
    "Fig 9c: LDA (nytimes-like) convergence per iteration \
     (serial / data-parallel / dep-aware unordered / dep-aware ordered)";
  let corpus = Lazy.force nytimes in
  let serial = Orion_lda.train_serial ~config:orion_lda_config ~corpus () in
  let dp, _ = Bosen_lda.train ~config:bosen_lda_config ~corpus () in
  let unord = (Orion_lda.train ~config:orion_lda_config ~corpus ()).trajectory in
  let ord =
    (Orion_lda.train ~config:{ orion_lda_config with ordered = true } ~corpus ())
      .trajectory
  in
  print_trajectory_table ~metric_name:"log likelihood"
    [ serial; dp; unord; ord ]

(* ------------------------------------------------------------------ *)
(* Table 3: ordered vs unordered 2D parallelization                    *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: time per iteration (s), ordered vs unordered 2D";
  let data = Lazy.force netflix in
  let corpus = Lazy.force nytimes in
  let row name ordered_traj unordered_traj =
    let t_o = Trajectory.avg_time_per_iteration ordered_traj in
    let t_u = Trajectory.avg_time_per_iteration unordered_traj in
    Printf.printf "%-22s %10.4f %10.4f %9.1fx\n" name t_o t_u (t_o /. t_u)
  in
  Printf.printf "%-22s %10s %10s %10s\n" "" "Ordered" "Unordered" "Speedup";
  let short = { orion_mf_config with epochs = 4 } in
  row "SGD MF (netflix)"
    (Orion_mf.train ~config:{ short with ordered = true } ~data ()).trajectory
    (Orion_mf.train ~config:short ~data ()).trajectory;
  let short_ar = { short with adarev = true } in
  row "SGD MF AdaRev"
    (Orion_mf.train ~config:{ short_ar with ordered = true } ~data ()).trajectory
    (Orion_mf.train ~config:short_ar ~data ()).trajectory;
  let lda_short = { orion_lda_config with epochs = 4 } in
  row "LDA (nytimes)"
    (Orion_lda.train ~config:{ lda_short with ordered = true } ~corpus ())
      .trajectory
    (Orion_lda.train ~config:lda_short ~corpus ()).trajectory

(* ------------------------------------------------------------------ *)
(* Fig 10: Orion vs Bosen                                              *)
(* ------------------------------------------------------------------ *)

let fig10ab () =
  section
    "Fig 10a/10b: SGD MF (AdaRev): Bosen DP / Bosen CM+AdaRev / Orion / \
     Orion AdaRev";
  let data = Lazy.force netflix in
  let dp, _ = Bosen_mf.train ~config:bosen_mf_config ~data () in
  let cm_adarev, _ =
    Bosen_mf.train
      ~config:{ bosen_mf_config with adarev = true; comm_rounds = 6 }
      ~data ()
  in
  let orion = (Orion_mf.train ~config:orion_mf_config ~data ()).trajectory in
  let orion_ar =
    (Orion_mf.train ~config:{ orion_mf_config with adarev = true } ~data ())
      .trajectory
  in
  let all = [ dp; cm_adarev; orion; orion_ar ] in
  print_trajectory_table ~metric_name:"training loss" all;
  print_time_series ~metric_name:"training loss" all

let fig10c () =
  section "Fig 10c: LDA (clueweb-like): Bosen DP / Bosen CM / Orion, over time";
  let corpus = Lazy.force clueweb in
  let cfg = { bosen_lda_config with epochs = 8 } in
  let dp, _ = Bosen_lda.train ~config:cfg ~corpus () in
  let cm, _ = Bosen_lda.train ~config:{ cfg with comm_rounds = 6 } ~corpus () in
  let orion =
    (Orion_lda.train ~config:{ orion_lda_config with epochs = 8 } ~corpus ())
      .trajectory
  in
  print_time_series ~metric_name:"log likelihood" [ dp; cm; orion ]

(* ------------------------------------------------------------------ *)
(* Fig 11: Orion vs STRADS                                             *)
(* ------------------------------------------------------------------ *)

let fig11a () =
  section "Fig 11a: SGD MF AdaRev vs STRADS (manual model parallelism)";
  let data = Lazy.force netflix in
  let strads =
    Strads_mf.train
      ~config:
        {
          Strads_mf.default_config with
          num_machines = conv_machines;
          workers_per_machine = conv_wpm;
          rank = mf_rank;
          alpha = 0.05;
          epochs = mf_epochs;
          per_entry_cost = mf_cost;
        }
      ~data ()
  in
  let orion =
    (Orion_mf.train ~config:{ orion_mf_config with adarev = true } ~data ())
      .trajectory
  in
  print_trajectory_table ~metric_name:"training loss" [ strads; orion ];
  print_time_series ~metric_name:"training loss" [ strads; orion ]

let fig11bc () =
  section "Fig 11b/11c: LDA vs STRADS, over time and iterations";
  let corpus = Lazy.force clueweb in
  let epochs = 8 in
  let strads =
    Strads_lda.train
      ~config:
        {
          Strads_lda.num_machines = conv_machines;
          workers_per_machine = conv_wpm;
          num_topics = lda_topics;
          epochs;
          per_token_cost = lda_cost /. 2.5;
        }
      ~corpus ()
  in
  let orion =
    (Orion_lda.train ~config:{ orion_lda_config with epochs } ~corpus ())
      .trajectory
  in
  print_trajectory_table ~metric_name:"log likelihood" [ strads; orion ];
  print_time_series ~metric_name:"log likelihood" [ strads; orion ]

(* ------------------------------------------------------------------ *)
(* Fig 12: bandwidth usage                                             *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  section
    "Fig 12: cluster bandwidth usage (Mbps per 1ms window), LDA nytimes";
  let corpus = Lazy.force nytimes in
  let cfg = { bosen_lda_config with epochs = 5 } in
  let cm_recorder = Orion_sim.Recorder.create ~bin_width_sec:0.001 () in
  let _ =
    Bosen_lda.train ~recorder:cm_recorder
      ~config:{ cfg with comm_rounds = 6 } ~corpus ()
  in
  let orion_recorder = Orion_sim.Recorder.create ~bin_width_sec:0.001 () in
  let _ =
    Orion_lda.train ~recorder:orion_recorder
      ~config:{ orion_lda_config with epochs = 5 } ~corpus ()
  in
  let show name r =
    let series = Orion_sim.Recorder.mbps_series r in
    Printf.printf "%-22s total %.1f MB; series (Mbps):" name
      (Orion_sim.Recorder.total_bytes r /. 1e6);
    Array.iteri
      (fun i mbps -> if i < 40 then Printf.printf " %.0f" mbps)
      series;
    Printf.printf "\n"
  in
  show "Bosen CM" cm_recorder;
  show "Orion" orion_recorder;
  Printf.printf
    "(Bosen CM communicates aggressively under its bandwidth budget; Orion \
     only rotates partitions.)\n"

(* ------------------------------------------------------------------ *)
(* Fig 13: Orion vs TensorFlow                                         *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Fig 13: SGD MF, Orion vs TensorFlow-style minibatch dataflow";
  let data = Lazy.force netflix in
  let orion =
    (Orion_mf.train
       ~config:{ orion_mf_config with num_machines = 1; workers_per_machine = 16 }
       ~data ())
      .trajectory
  in
  let big = max 1000 (data.num_ratings / 4) in
  let small = max 250 (data.num_ratings / 32) in
  let tf_cfg b =
    {
      Tf_mf.default_config with
      rank = mf_rank;
      minibatch = b;
      step_size = 2.0;
      epochs = mf_epochs;
      per_entry_cost = mf_cost;
    }
  in
  let tf_big = Tf_mf.train ~config:(tf_cfg big) ~data () in
  print_time_series ~metric_name:"training loss" [ orion; tf_big ];
  Printf.printf "\nFig 13b: time (s) per data pass\n";
  Printf.printf "%-28s %10.4f\n" "Orion (16 workers)"
    (Trajectory.avg_time_per_iteration orion);
  List.iter
    (fun b ->
      Printf.printf "%-28s %10.4f\n"
        (Printf.sprintf "TF (batch %d)" b)
        (Tf_mf.seconds_per_pass (tf_cfg b) ~num_entries:data.num_ratings))
    [ big; small ]

(* ------------------------------------------------------------------ *)
(* §6.3: bulk prefetching                                              *)
(* ------------------------------------------------------------------ *)

let prefetch () =
  section "S6.3: SLR bulk prefetching (seconds per pass)";
  let data = Lazy.force kdd in
  Printf.printf "samples %d, features %d, avg nnz %.1f\n" data.num_samples
    data.num_features data.avg_nnz;
  let run mode =
    Slr_runner.train
      ~config:
        {
          Slr_runner.default_config with
          mode;
          step_size = 0.01;
          epochs = 2;
          num_machines = 1;
          workers_per_machine = 4;
          per_sample_cost = 2e-6;
        }
      ~data ()
  in
  let r_none = run Slr_runner.No_prefetch in
  let r_pre = run Slr_runner.Prefetch in
  let r_cached = run Slr_runner.Prefetch_cached in
  Printf.printf "%-34s %12s\n" "access mode" "s/pass";
  let t (r : Slr_runner.result) =
    r.Slr_runner.seconds_per_pass.(Array.length r.Slr_runner.seconds_per_pass - 1)
  in
  Printf.printf "%-34s %12.4f\n" "remote random access" (t r_none);
  Printf.printf "%-34s %12.4f\n" "synthesized bulk prefetch" (t r_pre);
  Printf.printf "%-34s %12.4f\n" "prefetch w/ cached indices" (t r_cached);
  Printf.printf "\nsynthesized prefetch program:\n%s"
    (Orion.Pretty.program_to_string r_pre.Slr_runner.prefetch_program)

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper                                          *)
(* ------------------------------------------------------------------ *)

let ablation_partitioning () =
  section "Ablation: histogram-balanced vs equal-width partitioning (skewed)";
  let data =
    Orion_data.Ratings.generate
      ~num_users:(int_of_float (400.0 *. scale))
      ~num_items:(int_of_float (300.0 *. scale))
      ~num_ratings:(int_of_float (20_000.0 *. scale))
      ~user_skew:1.2 ~item_skew:1.2 ()
  in
  let workers = 8 in
  let imbalance sched =
    let sizes =
      Array.to_list
        (Array.map
           (fun row ->
             Array.fold_left (fun acc b -> acc + Orion.Schedule.length b) 0 row)
           sched.Orion.Schedule.blocks)
    in
    let mx = List.fold_left max 0 sizes in
    let avg =
      float_of_int (List.fold_left ( + ) 0 sizes)
      /. float_of_int (List.length sizes)
    in
    float_of_int mx /. avg
  in
  (* histogram-balanced (the default) *)
  let balanced =
    Orion.Schedule.partition_2d data.ratings ~space_dim:0 ~time_dim:1
      ~space_parts:workers ~time_parts:(workers * 2)
  in
  (* equal-width: emulate by bypassing the histogram *)
  let dims = Orion.Dist_array.dims data.ratings in
  let sb = Orion.Partitioner.equal_ranges ~dim_size:dims.(0) ~parts:workers in
  let tb =
    Orion.Partitioner.equal_ranges ~dim_size:dims.(1) ~parts:(workers * 2)
  in
  let equal_sizes = Array.make workers 0 in
  Orion.Dist_array.iter
    (fun key _ ->
      let s = Orion.Partitioner.part_of ~boundaries:sb key.(0) in
      ignore (Orion.Partitioner.part_of ~boundaries:tb key.(1));
      equal_sizes.(s) <- equal_sizes.(s) + 1)
    data.ratings;
  let eq_mx = Array.fold_left max 0 equal_sizes in
  let eq_avg =
    float_of_int (Array.fold_left ( + ) 0 equal_sizes)
    /. float_of_int workers
  in
  Printf.printf "max/avg worker load, histogram-balanced: %.2f\n"
    (imbalance balanced);
  Printf.printf "max/avg worker load, equal-width       : %.2f\n"
    (float_of_int eq_mx /. eq_avg)

let ablation_pipeline_depth () =
  section "Ablation: pipelining depth (time partitions per worker)";
  let data = Lazy.force netflix in
  Printf.printf "%-8s %14s\n" "depth" "s/iteration";
  List.iter
    (fun depth ->
      let t =
        (Orion_mf.train
           ~config:{ orion_mf_config with pipeline_depth = depth; epochs = 3 }
           ~data ())
          .trajectory
      in
      Printf.printf "%-8d %14.4f\n" depth (Trajectory.avg_time_per_iteration t))
    [ 1; 2; 4 ]

let ablation_cm_budget () =
  section "Ablation: Bosen CM bandwidth budget sweep (SGD MF final loss)";
  let data = Lazy.force netflix in
  Printf.printf "%-16s %14s %16s\n" "budget (Mbps)" "final loss" "bytes sent (MB)";
  List.iter
    (fun budget ->
      let t, r =
        Bosen_mf.train
          ~config:
            {
              bosen_mf_config with
              comm_rounds = 6;
              bandwidth_budget_mbps = budget;
              epochs = 8;
            }
          ~data ()
      in
      Printf.printf "%-16.0f %14.4f %16.2f\n" budget
        (Trajectory.final_metric t)
        (Orion_sim.Recorder.total_bytes r /. 1e6))
    [ 100.0; 400.0; 1600.0; 6400.0 ]

let ablation_unimodular () =
  section
    "Ablation: unimodular (wavefront) parallelization of a skewed stencil";
  let rows = int_of_float (160.0 *. scale)
  and cols = int_of_float (120.0 *. scale) in
  let grid = Stencil.make_grid ~rows ~cols in
  (* heavy per-cell work (e.g. alignment scoring): the wavefront has
     ~rows+cols synchronization steps, so cheap cells would be
     barrier-bound *)
  let per_cell = 2e-5 in
  (* serial sweep *)
  let serial_cluster =
    Orion.Cluster.create ~num_machines:1 ~workers_per_machine:1
      ~cost:Orion.Cost_model.default ()
  in
  let serial_model = Stencil.init_model ~rows ~cols () in
  let serial_stats =
    Orion.Executor.run_serial serial_cluster
      ~compute:(Orion.Executor.Per_entry per_cell)
      grid (Stencil.body serial_model)
  in
  Printf.printf "%-28s %12.4f s\n" "serial lexicographic sweep"
    serial_stats.Orion.Executor.sim_time;
  List.iter
    (fun workers ->
      let session =
        Orion.create_session ~num_machines:workers ~workers_per_machine:1 ()
      in
      let model = Stencil.init_model ~rows ~cols () in
      Stencil.register_arrays session ~grid model;
      let plan = List.hd (Orion.analyze_script session Stencil.script) in
      let compiled = Orion.compile session ~plan ~iter:grid () in
      let stats =
        Orion.execute session compiled
          ~compute:(Orion.Executor.Per_entry per_cell)
          ~body:(Stencil.body model) ()
      in
      let exact = model.Stencil.s = serial_model.Stencil.s in
      Printf.printf "%-28s %12.4f s   (%s, bitwise-equal result: %b)\n"
        (Printf.sprintf "wavefront, %d workers" workers)
        stats.Orion.Executor.sim_time
        (Orion.Plan.strategy_to_string plan.Orion.Plan.strategy)
        exact)
    [ 2; 4; 8 ]

let ablation_gbt () =
  section "Ablation: GBT split finding, serial vs Orion-scheduled (1D)";
  let data =
    Gbt.synthetic
      ~num_samples:(int_of_float (600.0 *. scale))
      ~num_features:12 ()
  in
  let params = { Gbt.default_params with num_trees = 15 } in
  let _, serial_traj = Gbt.train ~params data in
  (* each per-feature scan is charged to a worker under a 1D schedule *)
  let cluster =
    Orion.Cluster.create ~num_machines:4 ~workers_per_machine:1
      ~cost:Orion.Cost_model.default ()
  in
  let scan fs find =
    let results = List.map find fs in
    List.iteri
      (fun i _ ->
        Orion.Cluster.compute cluster
          ~worker:(i mod Orion.Cluster.num_workers cluster)
          5e-5)
      fs;
    Orion.Cluster.barrier cluster;
    results
  in
  let model, par_traj = Gbt.train ~params ~parallel_feature_scan:scan data in
  Printf.printf "serial final log-loss   : %.4f\n"
    serial_traj.(params.Gbt.num_trees);
  Printf.printf "parallel final log-loss : %.4f (identical: %b)\n"
    par_traj.(params.Gbt.num_trees)
    (serial_traj = par_traj);
  Printf.printf "accuracy                : %.3f\n" (Gbt.accuracy model data);
  Printf.printf "simulated split-find time with 4 workers: %.4f s\n"
    (Orion.Cluster.now cluster)

let all () =
  table1 ();
  table2 ();
  fig9a ();
  fig9b ();
  fig9c ();
  table3 ();
  fig10ab ();
  fig10c ();
  fig11a ();
  fig11bc ();
  fig12 ();
  fig13 ();
  prefetch ();
  ablation_partitioning ();
  ablation_pipeline_depth ();
  ablation_cm_budget ();
  ablation_unimodular ();
  ablation_gbt ()

let registry =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig9c", fig9c);
    ("table3", table3);
    ("fig10ab", fig10ab);
    ("fig10c", fig10c);
    ("fig11a", fig11a);
    ("fig11bc", fig11bc);
    ("fig12", fig12);
    ("fig13", fig13);
    ("prefetch", prefetch);
    ("ablation_partitioning", ablation_partitioning);
    ("ablation_pipeline_depth", ablation_pipeline_depth);
    ("ablation_cm_budget", ablation_cm_budget);
    ("ablation_unimodular", ablation_unimodular);
    ("ablation_gbt", ablation_gbt);
  ]
