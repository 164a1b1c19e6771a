(** SGD MF under STRADS-style manual model parallelism (Kim et al.,
    EuroSys'16) — the comparison of Fig. 11a.

    STRADS applications hand-code the stratified schedule Orion
    derives automatically: the schedule here is constructed directly
    (no analysis, no code generation), and the cost model is the C++
    one — in particular, intra-machine communication is pointer
    swapping (§6.4), which is STRADS's main throughput edge over the
    Julia-based prototype. *)

open Orion_apps
module Cluster = Orion_sim.Cluster
module Cost_model = Orion_sim.Cost_model
module Schedule = Orion_runtime.Schedule
module Executor = Orion_runtime.Executor
module Domain_exec = Orion_runtime.Domain_exec

type config = {
  num_machines : int;
  workers_per_machine : int;
  rank : int;
  alpha : float;  (** STRADS SGD MF uses adaptive revision too *)
  adarev : bool;
  step_size : float;
  epochs : int;
  per_entry_cost : float;
}

let default_config =
  {
    num_machines = 12;
    workers_per_machine = 32;
    rank = 32;
    alpha = 0.08;
    adarev = true;
    step_size = 0.005;
    epochs = 20;
    per_entry_cost = 1e-6;
  }

let train ?(config = default_config) ~(data : Orion_data.Ratings.t) () =
  let cluster =
    Cluster.create ~num_machines:config.num_machines
      ~workers_per_machine:config.workers_per_machine
      ~cost:Cost_model.strads_cpp ()
  in
  let workers = Cluster.num_workers cluster in
  (* the hand-written stratified schedule: workers × (2·workers) blocks *)
  let sched =
    Schedule.partition_2d ~shuffle_seed:17 data.ratings ~space_dim:0
      ~time_dim:1 ~space_parts:workers ~time_parts:(workers * 2)
  in
  let am =
    Sgd_mf.init_adarev ~rank:config.rank ~num_users:data.num_users
      ~num_items:data.num_items ~alpha:config.alpha ()
  in
  let model = am.Sgd_mf.base in
  let body =
    if config.adarev then Sgd_mf.body_adarev am
    else Sgd_mf.body model ~step_size:config.step_size
  in
  (* adaptive revision roughly doubles per-sample arithmetic, in C++
     as in Julia *)
  let per_entry_cost =
    if config.adarev then config.per_entry_cost *. 2.5
    else config.per_entry_cost
  in
  let rotated_bytes =
    (* H rotates between workers, as in Orion's plan *)
    float_of_int (Array.length model.Sgd_mf.h)
    *. 8.0
    /. float_of_int sched.Schedule.time_parts
  in
  let traj =
    ref (Trajectory.create ~system:"STRADS" ~workload:"SGD MF")
  in
  traj :=
    Trajectory.add !traj ~time:0.0 ~iteration:0
      ~metric:(Sgd_mf.loss model data.ratings);
  for e = 1 to config.epochs do
    Schedule.reshuffle sched ~seed:(1000 * e);
    ignore
      (Executor.run cluster
         ~compute:(Executor.Per_entry per_entry_cost)
         ~model:(Domain_exec.M_2d_unordered { depth = 2 })
         ~bytes_per_partition:rotated_bytes sched
         body);
    traj :=
      Trajectory.add !traj
        ~time:(Cluster.now cluster)
        ~iteration:e
        ~metric:(Sgd_mf.loss model data.ratings)
  done;
  !traj
