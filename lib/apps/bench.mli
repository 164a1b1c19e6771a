(** Unified benchmark front door, behind [orion bench].

    All three suites — multicore speedup ({!Speedup}), distributed
    speedup with wire-byte accounting ({!Dist_bench}), and
    loss-vs-wall-time convergence ({!Convergence}) — run through one
    {!run} call.  Each keeps its suite-specific payload, but every
    written envelope also carries a uniform ["rows"] list with the
    same columns (app, mode, workers, wall seconds, bytes shipped vs
    per-record [Marshal] bytes), so tooling can read any
    [BENCH_*.json] without knowing which suite produced it. *)

type mode = [ `Speedup | `Speedup_distributed | `Convergence ]

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** ["BENCH_parallel.json"], ["BENCH_distributed.json"], or
    ["BENCH_convergence.json"]. *)
val default_out : mode -> string

(** One benchmark measurement in the shared shape. *)
type row = {
  row_app : string;
  row_mode : string;  (** engine mode: ["sim"], ["parallel"], ["distributed"] *)
  row_workers : int;  (** domains or worker processes *)
  row_wall_seconds : float;
  row_speedup : float option;
  row_loss : float option;  (** final training loss, when measured *)
  row_bytes_shipped : float;
  row_bytes_full : float;
  row_bytes_saved_fraction : float;
  row_policy_by_array : (string * string) list;
  row_ok : bool option;
      (** matched the suite's reference run, where one exists *)
}

val row_json : row -> Orion.Report.json

(** Append the uniform ["rows"] section to a suite payload — shared
    with out-of-tree suites (e.g. [lib/tune]'s [bench-tune]) so every
    BENCH_*.json stays uniformly readable. *)
val with_rows : Orion.Report.json -> row list -> Orion.Report.json

(** Write an enveloped report (plus trailing newline) to a path. *)
val write_file : string -> string -> unit

(** Run one benchmark suite and write its enveloped JSON (with the
    uniform ["rows"] section appended) to [out] (see {!default_out}
    for the conventional paths).  [domains_list] drives [`Speedup] and
    [`Convergence]; [procs_list] and [transport] drive
    [`Speedup_distributed].  [print] (default true) emits the
    human-readable tables on stdout.  Returns the rows.
    @raise Orion.Engine.Distributed_error when a distributed run fails *)
val run :
  mode:mode ->
  scale:float ->
  out:string ->
  ?apps:string list ->
  ?domains_list:int list ->
  ?procs_list:int list ->
  ?passes:int ->
  ?transport:Orion.Engine.transport ->
  ?num_machines:int ->
  ?workers_per_machine:int ->
  ?print:bool ->
  unit ->
  row list
