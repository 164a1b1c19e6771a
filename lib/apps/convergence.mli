(** Convergence benchmarking: loss versus monotonic wall time.

    Drives an app pass-at-a-time through {!Orion.Engine.run}, recording
    the training objective ({!Orion.App.t.app_loss}) and the cumulative
    monotonic wall clock after every pass — the measurement behind the
    paper's loss-over-time comparisons (Fig. 9/10).  Between passes the
    app's [app_prepare_pass] (if any) folds buffered accumulators into
    the model, so buffer-trained apps (SLR) actually descend.

    Straggler ratio and barrier-wait fraction come from the engine's
    wall-clock telemetry when the mode records it. *)

type point = {
  pt_pass : int;  (** 0 is the initial state, before any training *)
  pt_wall : float;  (** cumulative monotonic seconds since the run began *)
  pt_loss : float;
  pt_straggler : float option;  (** max/mean busy over workers *)
  pt_barrier : float option;  (** barrier-wait fraction *)
}

type result = {
  cv_app : string;
  cv_mode : string;
  cv_domains : int;
  cv_passes : int;
  cv_scale : float;
  cv_bytes_shipped : float;  (** summed over all measured passes *)
  cv_bytes_full : float;
  cv_points : point list;  (** pass order, starting at pass 0 *)
}

(** Run [app] for [passes] passes under [mode], measuring after each.
    @raise Invalid_argument when the app declares no [app_loss] *)
val run :
  Orion.App.t ->
  mode:Orion.Engine.mode ->
  passes:int ->
  ?scale:float ->
  ?num_machines:int ->
  ?workers_per_machine:int ->
  ?pipeline_depth:int ->
  unit ->
  result

val result_payload : result -> Orion_report.json

(** All results as one un-enveloped ["bench-convergence"] payload. *)
val payload : result list -> Orion_report.json

(** All results as one ["bench-convergence"] envelope (the
    [BENCH_convergence.json] contents). *)
val emit : result list -> string
