(** Populates {!Orion.App} with the four built-in applications
    (mf, slr, lda, gbt): small deterministic instances for execution and
    verification, plus paper-scale (Table 2) metadata for analysis-only
    workflows.  Registration happens at module initialization, which
    also installs [lib/net]'s distributed master as
    [Orion.Engine]'s [`Distributed] runner. *)

(** When these environment variables name a sharded dataset directory
    ({!Orion_store.Gen}), [app_make] streams the dataset from the shards
    instead of generating it in memory — environment (not parameters) so
    the exec'd distributed workers find the same shards (they read
    only the headers, except lda's, which load the corpus). *)

val ratings_dir_env : string
(** ["ORION_DATA_RATINGS"] — mf *)

val features_dir_env : string
(** ["ORION_DATA_FEATURES"] — slr *)

val corpus_dir_env : string
(** ["ORION_DATA_CORPUS"] — lda *)

(** Build a fresh deterministic instance of app [name] ([None] if
    unknown).  Distributed workers build theirs through this with
    [~records:false]: every array at its shape (from the shard headers
    or the generator's parameters) and no record read, except where a
    host builtin closes over the records (lda's topic totals, gbt's
    samples).  Every [app_make] is deterministic, so master and workers
    materialize identical initial state and host builtins. *)
val materialize :
  ?records:bool ->
  string ->
  scale:float ->
  num_machines:int ->
  workers_per_machine:int ->
  Orion.App.instance option

(** Force this module's initializer (and thus app registration and the
    distributed-runner installation) to run.  Call before the first
    {!Orion.App.find} in any executable that only links [orion_apps]. *)
val ensure : unit -> unit
