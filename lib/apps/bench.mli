(** The benchmark harness behind [orion bench].

    Every suite measures the same thing: one (app, backend, workers)
    run, checked element-wise against a [`Sim] reference of the same
    cluster shape, recorded as one {!row}.  [`Speedup] and
    [`Speedup_distributed] are one scaling loop over worker counts (on
    the domain pool or on worker processes); [`Convergence] drives an
    instance one pass at a time and records a row per pass, with
    training loss against cumulative wall time (the paper's Fig. 9/10
    axes).  Every suite writes the same envelope: the run parameters
    plus a ["rows"] list.

    [`Sim] always interprets while the domain pool and the workers run
    {!Orion.Compile} kernels (unless [ORION_NO_COMPILE] is set), so
    each reference check is also a compiled-vs-interpreted
    differential test. *)

type mode = [ `Speedup | `Speedup_distributed | `Convergence ]

(** ["BENCH_parallel.json"], ["BENCH_distributed.json"], or
    ["BENCH_convergence.json"]. *)
val default_out : mode -> string

(** {1 Instances} *)

(** ["ORION_BENCH_SCALE"]: the dataset scale factor used when no
    [--scale] is given. *)
val scale_env : string

(** The [ORION_BENCH_SCALE] factor, else 1.0 (also when the variable is
    empty).
    @raise Invalid_argument naming the variable when the value is
    malformed, non-finite or not positive *)
val env_scale : unit -> float

(** The cluster shape [(num_machines, workers_per_machine)] an
    instance is built with for [mode]: one worker process per machine
    for [`Distributed], [num_machines] x [workers_per_machine]
    otherwise.  Schedule shape fixes the order entries execute in, so a
    run and its reference must share it. *)
val shape :
  num_machines:int -> workers_per_machine:int -> Orion.Engine.mode -> int * int

(** A fresh instance of the app, built with {!shape}. *)
val make_instance :
  Orion.App.t ->
  scale:float ->
  num_machines:int ->
  workers_per_machine:int ->
  Orion.Engine.mode ->
  Orion.App.instance

(** The registered apps named (default: all), in order; an unknown name
    is reported on stderr under [suite] and skipped. *)
val select_apps : suite:string -> string list option -> Orion.App.t list

(** {1 Reference checks} *)

type check = {
  ck_max_abs : float;  (** over every output array *)
  ck_max_rel : float;
  ck_ok : bool;  (** every output array within the tolerance *)
}

(** Compare two instances' output arrays (same app, same shape) with
    {!Orion_dsm.Dist_array.diff_arrays}: bitwise for [tolerance =
    None], else within that relative tolerance. *)
val check_outputs :
  tolerance:float option -> Orion.App.instance -> Orion.App.instance -> check

(** {1 Rows} *)

(** One measurement. *)
type row = {
  row_app : string;
  row_mode : string;  (** ["sim"], ["parallel"] or ["distributed"] *)
  row_workers : int;  (** domains or worker processes; 1 for [`Sim] *)
  row_passes : int;  (** passes the measurement covers *)
  row_strategy : string;
  row_compiled : bool;  (** bodies ran as {!Orion.Compile} kernels *)
  row_wall_seconds : float;
  row_speedup : float option;
      (** wall time of the app's 1-worker row over this row's; [None]
          without a 1-worker row *)
  row_oversubscribed : bool;
      (** more workers than available cores: wall time measures
          scheduler thrash, not parallel speedup *)
  row_loss : float option;  (** training loss after the run *)
  row_straggler_ratio : float option;
      (** max/mean busy time over workers, from wall-clock telemetry *)
  row_barrier_wait_fraction : float option;
  row_bytes_shipped : float;  (** wire bytes ([`Distributed] only) *)
  row_bytes_full : float;
      (** the same traffic as one [Marshal]ed record per write *)
  row_policy_by_array : (string * string) list;
      (** per-DistArray wire key mode (["sparse"] or ["dense"]) *)
  row_check : check;  (** against the row's reference run *)
}

(** The row of one {!Orion.Engine.run} report. *)
val row_of_report :
  Orion.Engine.report ->
  passes:int ->
  loss:float option ->
  check:check ->
  row

(** The run parameters every envelope records: [available_cores],
    [passes], [scale], [transport]. *)
val params :
  passes:int ->
  scale:float ->
  transport:Orion.Engine.transport ->
  (string * Orion.Report.json) list

(** Write a versioned envelope of [kind] to [out]: the given payload
    fields followed by ["rows"]. *)
val write :
  out:string ->
  kind:string ->
  (string * Orion.Report.json) list ->
  row list ->
  unit

(** 1 when any row failed its reference check (each such row is named
    on stderr), else 0: the exit status of [orion bench]. *)
val exit_code : row list -> int

(** {1 Suites} *)

(** Run one suite and write its envelope to [out] (see {!default_out}).
    [domains_list] drives [`Speedup] and [`Convergence] (1 domain
    measures [`Sim] under [`Convergence]); [procs_list] and [transport]
    drive [`Speedup_distributed].  [print] (default true) prints each
    row on stdout.  Returns the rows.
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
