(** Wall-clock telemetry for the real runtimes: lock-free
    single-writer-per-shard span recording ({!Clock} monotonic seconds
    relative to a run [epoch]), a measured per-block cost table keyed
    [(pass, space, time)], deterministic shard merging, and per-pass
    {!Metrics} summaries.  The distributed master aligns spans shipped
    by worker processes using the absolute epochs (shared monotonic
    origin per machine). *)

type block_cost = {
  bc_pass : int;
  bc_space : int;  (** space-partition index sp *)
  bc_time : int;  (** time-partition index t *)
  bc_seconds : float;
  bc_entries : int;
}

type t

(** One shard per worker; when [enabled] is false every recording call
    is a no-op that never reads the clock. *)
val create : ?enabled:bool -> workers:int -> unit -> t

(** A shared always-off instance (for default arguments). *)
val disabled : t

val enabled : t -> bool

(** Absolute monotonic time at {!create} — ship this with spans so
    another process can align them (see {!import_spans}). *)
val epoch : t -> float

val workers : t -> int

(** Seconds since [epoch].  Guard calls with {!enabled}. *)
val now : t -> float

(** ["p<pass>/t<time>/sp<space>"] — the block span label. *)
val block_label : pass:int -> time:int -> space:int -> string

(** Record one span into the caller's own [shard]. *)
val span :
  ?label:string ->
  ?bytes:float ->
  t ->
  shard:int ->
  worker:int ->
  category:Trace.category ->
  start:float ->
  finish:float ->
  unit

(** Record a block execution: a Compute span labeled {!block_label}
    plus a measured-cost table entry. *)
val block :
  t ->
  shard:int ->
  worker:int ->
  pass:int ->
  space:int ->
  time:int ->
  start:float ->
  finish:float ->
  entries:int ->
  unit

(** Hand out everything [shard] recorded since the last [drain]
    (spans, costs, new drops) and clear it — the worker side of
    per-pass shipping.  Single-writer: only the owning worker may
    call it. *)
val drain : t -> shard:int -> Trace.span array * block_cost list * int

(** Splice spans recorded by another process into [shard], shifting
    each start by [offset = sender_epoch -. epoch t]. *)
val import_spans : t -> shard:int -> offset:float -> Trace.span array -> unit

val import_costs : t -> shard:int -> block_cost list -> unit
val note_dropped : t -> shard:int -> int -> unit

(** All shards merged into one fresh trace, in shard order (drop
    counts summed) — deterministic for a fixed set of spans. *)
val merged_trace : t -> Trace.t

val dropped : t -> int

(** Measured cost per block, summed across shards, sorted by
    [(pass, space, time)] — the input to [orion explain --measured]. *)
val block_costs : t -> block_cost list

(** What the wire encoding did to the traffic: actual bytes shipped
    vs the same traffic in the raw layout (16 bytes per entry or
    journaled write), and the per-array key modes. *)
type comms_summary = {
  cs_bytes_shipped : float;
  cs_bytes_full : float;
  cs_by_array : (string * string) list;
}

type summary = {
  sm_mode : string;  (** "parallel" or "distributed" *)
  sm_workers : int;
  sm_trace : Trace.t;  (** merged timeline, shard order *)
  sm_dropped : int;
  sm_pass_metrics : (int * Metrics.t) list;  (** one per pass window *)
  sm_block_costs : block_cost list;
  sm_overall : Metrics.t;
  sm_comms : comms_summary option;  (** distributed runs only *)
}

(** Fold a finished run into a summary; [windows] lists each pass's
    [(pass, start, finish)] on the telemetry clock; [comms] attaches
    the wire-encoding byte accounting (distributed runs). *)
val summarize :
  t ->
  mode:string ->
  ?comms:comms_summary ->
  windows:(int * float * float) list ->
  unit ->
  summary

val block_cost_json : block_cost -> Orion_report.json

(** The summary as an {!Orion_report} payload (kind ["telemetry"]
    when enveloped). *)
val summary_json : summary -> Orion_report.json

(** Chrome trace-event JSON for the merged timeline with metrics and
    block costs embedded as top-level metadata. *)
val to_chrome_json : ?pid_of_worker:(int -> int) -> summary -> string

(** [ORION_TELEMETRY] environment variable; off only when ["0"]. *)
val default_enabled : unit -> bool
