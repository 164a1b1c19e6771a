(** Distributed execution of scheduled loops (paper §4.3–4.4,
    Figs. 7–8).  The loop body really runs (serializable schedules
    execute in a dependence-respecting order, so numerics are exact);
    computation and communication are charged to the simulated
    cluster's virtual clocks. *)

type 'v body = worker:int -> key:int array -> value:'v -> unit

type pass_stats = {
  sim_time : float;
  compute_seconds : float;
  bytes_sent : float;
  entries_executed : int;
  steps : int;
}

(** [Measured] charges real wall-clock per block (scaled by the cost
    model's language factor); [Per_entry c] charges [c] seconds per
    iteration (calibrated benchmark mode). *)
type compute_cost = Measured | Per_entry of float

(** One pass of [sched] under [model]: blocks run in
    {!Domain_exec.natural_order} and each strategy's computation,
    transfers and barriers are charged to [cluster] — a barrier per
    anti-diagonal for ordered 2D (Fig. 7e) and per time partition for
    time-major, one at the end otherwise; rotated partitions of
    [bytes_per_partition] (default 0: nothing moves) on the ordered
    wavefront's critical path, pipelined across workers for unordered 2D
    (Figs. 7f and 8).  An unordered model's depth is clamped to
    {!Domain_exec.effective_depth}.  [label] names the moving data in
    trace spans (default ["rotated"], ["shifted"] for time-major). *)
val run :
  Orion_sim.Cluster.t ->
  ?compute:compute_cost ->
  model:Domain_exec.model ->
  ?label:string ->
  ?bytes_per_partition:float ->
  'v Schedule.t ->
  'v body ->
  pass_stats

(** All entries on worker 0; [shuffle_seed] randomizes the sample order
    as serial SGD training would. *)
val run_serial :
  Orion_sim.Cluster.t ->
  ?compute:compute_cost ->
  ?shuffle_seed:int ->
  'v Orion_dsm.Dist_array.t ->
  'v body ->
  pass_stats
