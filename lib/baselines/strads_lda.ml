(** LDA under STRADS-style manual model parallelism (Fig. 11b/11c).

    STRADS hand-codes the same doc × word stratified schedule Orion
    derives, so the per-iteration convergence matches Orion's; its
    throughput edge is the C++ implementation and pointer-swap
    intra-machine communication — the paper reports Orion taking
    ~1.8–4× longer per iteration on LDA (§6.4).  Here that shows up as
    the [strads_cpp] cost model with no language overhead. *)

open Orion_apps
module Cluster = Orion_sim.Cluster
module Cost_model = Orion_sim.Cost_model
module Schedule = Orion_runtime.Schedule
module Executor = Orion_runtime.Executor
module Domain_exec = Orion_runtime.Domain_exec

type config = {
  num_machines : int;
  workers_per_machine : int;
  num_topics : int;
  epochs : int;
  per_token_cost : float;
      (** C++ sampling cost per token (the Julia side divides its cost
          by the language factor to reach parity on arithmetic) *)
}

let default_config =
  {
    num_machines = 12;
    workers_per_machine = 2;
    num_topics = 50;
    epochs = 20;
    per_token_cost = 2e-7 /. 2.5;
  }

let train ?(config = default_config) ~(corpus : Orion_data.Corpus.t) () =
  let cluster =
    Cluster.create ~num_machines:config.num_machines
      ~workers_per_machine:config.workers_per_machine
      ~cost:Cost_model.strads_cpp ()
  in
  let workers = Cluster.num_workers cluster in
  let sched =
    Schedule.partition_2d ~shuffle_seed:17 corpus.tokens ~space_dim:0
      ~time_dim:1 ~space_parts:workers ~time_parts:(workers * 2)
  in
  let model = Lda.init_model ~num_topics:config.num_topics ~corpus () in
  let rotated_bytes =
    float_of_int (corpus.vocab_size * config.num_topics)
    *. 8.0
    /. float_of_int sched.Schedule.time_parts
  in
  let traj = ref (Trajectory.create ~system:"STRADS" ~workload:"LDA") in
  traj :=
    Trajectory.add !traj ~time:0.0 ~iteration:0
      ~metric:(Lda.log_likelihood model);
  for e = 1 to config.epochs do
    ignore
      (Executor.run cluster
         ~compute:(Executor.Per_entry config.per_token_cost)
         ~model:(Domain_exec.M_2d_unordered { depth = 2 })
         ~bytes_per_partition:rotated_bytes sched
         (Lda.body model));
    traj :=
      Trajectory.add !traj
        ~time:(Cluster.now cluster)
        ~iteration:e
        ~metric:(Lda.log_likelihood model)
  done;
  !traj
