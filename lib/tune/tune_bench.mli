(** Static-vs-adaptive benchmarking: run an app twice on the same real
    backend — once with the planner's static schedule, once with the
    measurement-driven {!Replanner} — then replay the adaptive run's
    adopted schedule sequence statically and check the results agree.
    [bench --mode tune] and [orion tune] are thin wrappers. *)

type mode = [ `Parallel of int | `Distributed of int * Orion.Engine.transport ]

type run_result = {
  tb_app : string;
  tb_mode : string;  (** ["parallel"] or ["distributed"] *)
  tb_workers : int;
  tb_passes : int;
  tb_static_wall : float;
  tb_adaptive_wall : float;
  tb_speedup : float;  (** static wall / adaptive wall *)
  tb_static_straggler : float;
  tb_adaptive_straggler : float;
  tb_static_crit : float;
      (** sum over passes of max per-partition block seconds: the
          parallel critical path.  Wall clock tracks it when each worker
          has a core of its own; on oversubscribed hosts wall collapses
          to total work and hides the re-balance, so both are reported *)
  tb_adaptive_crit : float;
  tb_crit_speedup : float;  (** static critical path / adaptive *)
  tb_static_pass_walls : (int * float) list;
  tb_adaptive_pass_walls : (int * float) list;
  tb_decisions : Replanner.decision list;  (** the adaptive run's log *)
  tb_adopted : int;
  tb_rejected : int;
  tb_adopted_unvalidated : int;
      (** adopted decisions that were not race-checker-clean — must be 0 *)
  tb_replay_equal : bool;
      (** adaptive final arrays match a static replay of the adopted
          schedule sequence (bitwise, or within the app's tolerance) *)
}

val result_json : run_result -> Orion.Report.json
val pp_result : Format.formatter -> run_result -> unit

(** One static + adaptive + replay comparison.  [num_machines] /
    [workers_per_machine] shape parallel instances; distributed
    instances are one worker per machine, as everywhere else. *)
val run_app :
  app:Orion.App.t ->
  mode:mode ->
  passes:int ->
  scale:float ->
  num_machines:int ->
  workers_per_machine:int ->
  unit ->
  run_result

val default_out : string

(** The [bench --mode tune] suite: every listed app on every parallel
    domain count > 1 and every distributed proc count > 1, written to
    [out] as a versioned [bench-tune] envelope with the uniform bench
    rows appended.  Default app: [slrskew] — the Zipf-skewed workload
    the re-planner exists for. *)
val run :
  ?apps:string list ->
  ?domains_list:int list ->
  ?procs_list:int list ->
  ?passes:int ->
  ?transport:Orion.Engine.transport ->
  scale:float ->
  out:string ->
  ?num_machines:int ->
  ?workers_per_machine:int ->
  ?print:bool ->
  unit ->
  Orion_apps.Bench.row list
