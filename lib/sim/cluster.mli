(** The simulated distributed cluster: per-worker virtual clocks with
    computation and communication charging.  Numeric work executes
    in-process; the cluster only accounts for *when* it would have
    happened on the paper's testbed.  Every charge also emits a
    categorized span on the cluster's {!Orion_obs.Trace}; the optional [label]
    arguments name what the time was spent on. *)

type t = {
  num_machines : int;
  workers_per_machine : int;
  cost : Cost_model.t;
  clocks : float array;
  recorder : Recorder.t;
  trace : Orion_obs.Trace.t;
  mutable bytes_sent : float;
  mutable messages_sent : int;
}

val create :
  ?recorder:Recorder.t ->
  ?trace:Orion_obs.Trace.t ->
  num_machines:int ->
  workers_per_machine:int ->
  cost:Cost_model.t ->
  unit ->
  t

val num_workers : t -> int
val machine_of : t -> int -> int
val clock : t -> int -> float

(** The latest clock — "cluster time". *)
val now : t -> float

(** Advance every clock to at least [time]; the wait is traced as idle
    time. *)
val advance_all : ?label:string -> t -> float -> unit

(** Charge computation to one worker, scaled by the cost model's
    language factor. *)
val compute : ?label:string -> t -> worker:int -> float -> unit

(** Charge unscaled (system) time to one worker.  [category] refines
    the traced span (default [Compute]); [bytes] attributes
    communication volume to it. *)
val compute_raw :
  ?category:Orion_obs.Trace.category ->
  ?label:string ->
  ?bytes:float ->
  t ->
  worker:int ->
  float ->
  unit

(** Start a transfer; returns the arrival time.  Same-machine transfers
    are memory copies charged to the sender. *)
val send : ?label:string -> t -> src:int -> dst:int -> bytes:float -> float

(** Block [dst] until [arrival] (plus unmarshalling for cross-machine
    transfers). *)
val recv :
  ?label:string ->
  t ->
  dst:int ->
  arrival:float ->
  bytes:float ->
  cross_machine:bool ->
  unit

(** Synchronous point-to-point transfer. *)
val send_recv : ?label:string -> t -> src:int -> dst:int -> bytes:float -> unit

(** Global barrier: align all clocks on the slowest worker. *)
val barrier : ?label:string -> t -> unit

(** Reduce-and-broadcast of [bytes_per_worker] (accumulators,
    data-parallel parameter syncs). *)
val all_reduce : ?label:string -> t -> bytes_per_worker:float -> unit

(** Per-pass metrics over this cluster's trace (spans starting at or
    after [since]; default the whole run). *)
val metrics : ?since:float -> t -> Orion_obs.Metrics.t

(** Reset clocks and counters (keeps the recorder and the trace). *)
val reset : t -> unit
