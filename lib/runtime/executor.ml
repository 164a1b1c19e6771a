(** Distributed execution of scheduled loops (paper §4.3–4.4, Figs. 7–8).

    The executor really runs the loop body (so numeric results are
    exact for serializable schedules — the executed order is itself a
    valid serial order), while charging computation and communication
    to the simulated cluster's virtual clocks.  It visits blocks in the
    model's {!Domain_exec.natural_order}, the same linearization the
    domain pool and the distributed workers respect:

    - {b 1D}: each worker runs its space partition; global barrier.
    - {b ordered 2D}: wavefront over (space, time); a global step per
      anti-diagonal with a synchronization barrier (Fig. 7e).
    - {b unordered 2D}: workers start from different time indices and
      rotate partitions (Fig. 7f); with pipeline depth > 1 each
      worker holds several time partitions and overlaps communication
      with computation (Fig. 8).
    - {b time-major}: after a unimodular transformation every dependence
      is carried by the outer (time) dimension: time partitions run in
      sequence with a barrier, space partitions within one in parallel.

    Computation cost per block is *measured* (wall-clock of the real
    OCaml execution) and scaled by the cost model's language factor. *)

open Orion_sim

type 'v body = worker:int -> key:int array -> value:'v -> unit

type pass_stats = {
  sim_time : float;  (** cluster time consumed by this pass *)
  compute_seconds : float;  (** sum of per-block measured compute *)
  bytes_sent : float;
  entries_executed : int;
  steps : int;
}

let now_wall () = Unix.gettimeofday ()

(* Structured-log one completed pass; returns [st] so call sites can
   wrap their result expression. *)
let log_pass strategy (st : pass_stats) =
  if Log.enabled Log.Debug then
    Log.debug ~src:"executor"
      ~kv:
        [
          ("strategy", strategy);
          ("sim_time", Log.float st.sim_time);
          ("bytes", Log.float st.bytes_sent);
          ("entries", Log.int st.entries_executed);
          ("steps", Log.int st.steps);
        ]
      "pass complete";
  st


(* Execute one block, measuring real compute time; returns seconds. *)
let run_block (body : 'v body) ~worker (b : 'v Schedule.block) =
  let t0 = now_wall () in
  Array.iter (fun (key, v) -> body ~worker ~key ~value:v) b.Schedule.entries;
  now_wall () -. t0

(** Override for modeled (rather than measured) compute cost: seconds
    charged per entry.  Benchmarks that must mirror the paper's
    testbed speed use this; tests use measurement. *)
type compute_cost = Measured | Per_entry of float

let block_cost cost measured_seconds n_entries =
  match cost with
  | Measured -> measured_seconds
  | Per_entry c -> c *. float_of_int n_entries

(* ------------------------------------------------------------------ *)
(* One walk over the natural order                                     *)
(* ------------------------------------------------------------------ *)

let model_name = function
  | Domain_exec.M_1d -> "1d"
  | M_2d_ordered -> "2d-ordered"
  | M_2d_unordered _ -> "2d-unordered"
  | M_time_major -> "time-major"

(* Blocks run one at a time, step by step in [Domain_exec.natural_steps];
   what differs per model is only what a block pays around its compute
   and where the barriers fall:

   - 1D: nothing moves; one barrier at the end.
   - ordered 2D: a global step per anti-diagonal, closed by a barrier.
     Block (s, t) with s > 0 first receives time partition t from the
     worker that used it in the previous step; the step started from
     aligned clocks, so the transfer sits on the critical path (the
     ordering constraint forbids overlapping it).
   - unordered 2D: worker w executes time index (w * depth + step) mod
     tp at each step.  The first [depth] partitions a worker touches are
     assigned to it up front; later ones must have arrived from its
     successor.  After the block it ships the partition to its
     predecessor, who needs it [depth] steps later.  One barrier at the
     end.
   - time-major: time partitions run in sequence, closed by a barrier;
     each block ships its boundary to the next worker. *)
let run cluster ?(compute = Measured) ~(model : Domain_exec.model) ?label
    ?(bytes_per_partition = 0.0) (sched : 'v Schedule.t) (body : 'v body) =
  let t_start = Cluster.now cluster in
  let bytes0 = cluster.Cluster.bytes_sent in
  let workers = Cluster.num_workers cluster in
  let sp = sched.Schedule.space_parts and tp = sched.Schedule.time_parts in
  let model =
    match model with
    | Domain_exec.M_2d_unordered { depth } ->
        Domain_exec.M_2d_unordered
          { depth = Domain_exec.effective_depth ~pipeline_depth:depth ~sp ~tp }
    | m -> m
  in
  let name = model_name model in
  let label =
    match (label, model) with
    | Some l, _ -> l
    | None, Domain_exec.M_time_major -> "shifted"
    | None, _ -> "rotated"
  in
  let moves = bytes_per_partition > 0.0 in
  let steps = Domain_exec.natural_steps model ~sp ~tp in
  let per_step = Domain_exec.barrier_per_step model in
  let arrivals = Array.make tp 0.0 (* partition ready time at new owner *) in
  let compute_total = ref 0.0 in
  let executed = ref 0 in
  Array.iteri
    (fun k blocks ->
      Array.iter
        (fun (s, t) ->
          let w = s mod workers in
          (match model with
          | Domain_exec.M_2d_ordered when s > 0 && moves ->
              let bytes = bytes_per_partition in
              let cost = cluster.Cluster.cost in
              cluster.Cluster.bytes_sent <- cluster.Cluster.bytes_sent +. bytes;
              (* marshal + unmarshal, then the wire transfer, recorded at
                 its start (the clock before the charge) *)
              Cluster.compute_raw cluster ~worker:w
                ~category:Orion_obs.Trace.Marshal ~label
                (2.0 *. Cost_model.marshal_time cost bytes);
              let start = Cluster.clock cluster w in
              Cluster.compute_raw cluster ~worker:w
                ~category:Orion_obs.Trace.Transfer ~label ~bytes
                (Cost_model.transfer_time cost bytes
                +. cost.network_latency_sec);
              Recorder.record cluster.Cluster.recorder ~start_sec:start
                ~duration_sec:(Cost_model.transfer_time cost bytes)
                ~bytes
          | M_2d_unordered { depth } when k >= depth && moves ->
              Cluster.recv cluster ~dst:w ~arrival:arrivals.(t) ~label
                ~bytes:bytes_per_partition
                ~cross_machine:
                  (Cluster.machine_of cluster w
                  <> Cluster.machine_of cluster ((s + 1) mod sp mod workers))
          | _ -> ());
          let b = Schedule.block sched ~space:s ~time:t in
          let measured = run_block body ~worker:w b in
          let n = Array.length b.Schedule.entries in
          let secs = block_cost compute measured n in
          compute_total := !compute_total +. secs;
          executed := !executed + n;
          Cluster.compute cluster ~worker:w
            ~label:
              (match model with
              | M_1d -> Printf.sprintf "1d s%d" s
              | _ -> Printf.sprintf "%s s%d.t%d" name s t)
            secs;
          match model with
          | M_2d_unordered _ when moves ->
              let pred = (s - 1 + sp) mod sp mod workers in
              arrivals.(t) <-
                Cluster.send cluster ~src:w ~dst:pred ~label
                  ~bytes:bytes_per_partition
          | M_time_major when moves ->
              ignore
                (Cluster.send cluster ~src:w ~dst:((s + 1) mod workers) ~label
                   ~bytes:bytes_per_partition)
          | _ -> ())
        blocks;
      if per_step then Cluster.barrier cluster ~label:name)
    steps;
  if not per_step then Cluster.barrier cluster ~label:name;
  log_pass name
    {
      sim_time = Cluster.now cluster -. t_start;
      compute_seconds = !compute_total;
      bytes_sent = cluster.Cluster.bytes_sent -. bytes0;
      entries_executed = !executed;
      steps = Array.length steps;
    }

(* ------------------------------------------------------------------ *)
(* Serial reference                                                    *)
(* ------------------------------------------------------------------ *)

(** Run all entries on worker 0 (the serial baseline).  [shuffle_seed]
    randomizes the sample order as serial SGD training would. *)
let run_serial cluster ?(compute = Measured) ?shuffle_seed
    (iter : 'v Orion_dsm.Dist_array.t) (body : 'v body) =
  let t_start = Cluster.now cluster in
  let t0 = now_wall () in
  let n = ref 0 in
  (match shuffle_seed with
  | Some seed ->
      let entries = Orion_dsm.Dist_array.entries iter in
      Schedule.shuffle_in_place ~seed entries;
      Array.iter
        (fun (key, v) ->
          incr n;
          body ~worker:0 ~key ~value:v)
        entries
  | None ->
      Orion_dsm.Dist_array.iter
        (fun key v ->
          incr n;
          body ~worker:0 ~key ~value:v)
        iter);
  let measured = now_wall () -. t0 in
  let secs = block_cost compute measured !n in
  Cluster.compute cluster ~worker:0 ~label:"serial" secs;
  Cluster.advance_all cluster ~label:"serial" (Cluster.clock cluster 0);
  log_pass "serial"
    {
      sim_time = Cluster.now cluster -. t_start;
      compute_seconds = secs;
      bytes_sent = 0.0;
      entries_executed = !n;
      steps = 1;
    }
