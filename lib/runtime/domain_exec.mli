(** Real multicore execution of a {!Schedule.t} on a work-stealing pool
    of OCaml 5 domains, enforcing each strategy's happens-before order
    with per-block atomic dependence counters.  See the implementation
    header for the per-model edge sets. *)

(** The happens-before model a strategy induces over schedule blocks
    (shared with the race checker in [lib/verify]). *)
type model =
  | M_1d  (** space partitions, one barrier at the end *)
  | M_2d_ordered  (** anti-diagonal wavefront, dataflow form *)
  | M_2d_unordered of { depth : int }  (** pipelined partition rotation *)
  | M_time_major  (** unimodular time loop, barrier per time step *)

val model_to_string : model -> string

(** The executor's effective pipeline depth for an unordered-2D pass. *)
val effective_depth : pipeline_depth:int -> sp:int -> tp:int -> int

(** The execution model of a plan's schedule, shared by every backend. *)
val model_of_plan :
  Orion_analysis.Plan.t -> pipeline_depth:int -> sp:int -> tp:int -> model

(** {!Executor.run}'s global steps, each the blocks it runs in that
    step in order: one for 1D, an anti-diagonal each for the ordered
    wavefront, a pipeline step each for unordered 2D, a time partition
    each for time-major. *)
val natural_steps : model -> sp:int -> tp:int -> (int * int) array array

(** The sequential order in which {!Executor.run} visits blocks, its
    steps concatenated (one dependence-respecting linearization of the
    model). *)
val natural_order : model -> sp:int -> tp:int -> (int * int) array

(** Whether a barrier closes every step of {!natural_steps} (ordered 2D,
    time-major) rather than only the pass. *)
val barrier_per_step : model -> bool

(** Every immediate happens-before edge [(src, dst)] between block ids
    (id = s * tp + t) under [model] — the exact edge set the domain
    pool's dependence counters and the distributed workers' rotation
    tokens enforce.  Acyclic for every model and shape. *)
val block_edges : model -> sp:int -> tp:int -> (int * int) list

type stats = {
  domains : int;
  blocks_run : int;
  entries_run : int;
  steals : int;  (** ready blocks taken from another domain's stack *)
  wall_seconds : float;  (** real elapsed time of the parallel section *)
}

(** [run_schedule ~domains ~model sched ~bodies] executes every block
    of [sched] with real parallelism under [model]'s happens-before
    order.  [bodies] needs at least [domains] elements; [bodies.(d)]
    runs on domain [d] (one closure per domain — interpreter
    environments are single-writer).  Returns after all blocks
    complete; an exception from any body cancels the pass and is
    re-raised.

    With [telemetry] enabled (sized for ≥ [domains] shards), each
    domain records into its own shard: a Compute span + measured-cost
    entry per block (tagged [pass] and the block's space/time indices),
    Idle spans for pool waits (labeled ["steal"] when resolved by
    stealing) and a Barrier_wait ["join"] span for the final wait.
    Disabled telemetry costs nothing on the hot path. *)
val run_schedule :
  ?telemetry:Orion_obs.Telemetry.t ->
  ?pass:int ->
  domains:int ->
  model:model ->
  'v Schedule.t ->
  bodies:(key:int array -> value:'v -> unit) array ->
  stats
