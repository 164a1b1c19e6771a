(** Distributed (multi-process, socket) speedup benchmark over the
    registered apps, behind [orion bench --mode speedup-distributed].
    Each worker count runs once; its bytes-saved fraction compares the
    packed wire bytes with the per-record [Marshal] bytes of the same
    traffic.  Results are also checked element-wise against a
    simulated execution of the same schedule; the payload is enveloped
    by {!Bench.run} (kind ["bench-speedup-distributed"]). *)

type run = {
  run_procs : int;  (** worker processes requested *)
  run_wall_seconds : float;
  run_entries : int;
  run_bytes_shipped : float;  (** actual wire bytes of DistArray state *)
  run_bytes_full : float;  (** per-record [Marshal] bytes of the same traffic *)
  run_bytes_saved_fraction : float;  (** 1 - shipped/full *)
  run_bytes_by_array : (string * float) list;
  run_policy_by_array : (string * string) list;
      (** per-DistArray key mode (["sparse"] or ["dense"]) *)
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

(** Run the benchmark over [apps] (default: every registered app) at
    each worker count of [procs_list] (default [1; 2; 4]), [passes]
    passes per measurement, over [transport] (default [`Unix]).
    Returns the results and the un-enveloped
    ["bench-speedup-distributed"] payload. *)
val run :
  ?apps:string list ->
  ?procs_list:int list ->
  ?passes:int ->
  ?scale:float ->
  ?transport:Orion.Engine.transport ->
  unit ->
  app_result list * Orion.Report.json

(** Human-readable per-app/per-proc-count table on stdout. *)
val print_results : app_result list -> unit
