(** Self-relative multicore speedup benchmark over the registered apps,
    shared by [orion bench --mode speedup] and the bench harness.
    Results are checked element-wise against a simulated execution of
    the same schedule — which always interprets, so with compilation
    enabled each check doubles as a compiled-vs-interpreted
    differential test.  JSON output uses the versioned report envelope
    (kind ["bench-speedup"]). *)

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

(** Element-wise (max |a-b|, max relative) difference over two output
    lists of the same shape (also used by {!Dist_bench}). *)
val diff_outputs :
  (string * float Orion_dsm.Dist_array.t) list ->
  (string * float Orion_dsm.Dist_array.t) list ->
  float * float

(** Run the benchmark over [apps] (default: every registered app) at
    each domain count of [domains_list] (default [1; 2; 4; 8]),
    [passes] passes per measurement, datasets enlarged by [scale]
    (default 1).  Returns the results and the un-enveloped
    ["bench-speedup"] payload ({!Bench.run} envelopes and writes it
    to [BENCH_parallel.json]). *)
val run :
  ?apps:string list ->
  ?domains_list:int list ->
  ?passes:int ->
  ?scale:float ->
  ?num_machines:int ->
  ?workers_per_machine:int ->
  unit ->
  app_result list * Orion.Report.json

(** Human-readable per-app/per-domain-count table on stdout. *)
val print_results : app_result list -> unit
