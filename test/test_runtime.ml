(* Tests for schedules and the executor: partition correctness,
   serializability invariants, and the time-accounting shapes the paper
   reports (unordered 2D beats ordered 2D; speedup with workers). *)

open Orion_dsm
open Orion_runtime
module Cluster = Orion_sim.Cluster
module Cost_model = Orion_sim.Cost_model

let mk_cluster ?(machines = 2) ?(wpm = 2) () =
  Cluster.create ~num_machines:machines ~workers_per_machine:wpm
    ~cost:Cost_model.default ()

(* a deterministic pseudo-random sparse iteration space *)
let mk_iter ?(rows = 40) ?(cols = 30) ?(n = 400) () =
  let n = min n (rows * cols / 2) in
  let entries = ref [] in
  let rng = Orion_data.Rng.create 123456789 in
  let rand bound = Orion_data.Rng.int rng bound in
  let seen = Hashtbl.create 64 in
  let added = ref 0 in
  while !added < n do
    let i = rand rows and j = rand cols in
    if not (Hashtbl.mem seen (i, j)) then begin
      Hashtbl.add seen (i, j) ();
      entries := ([| i; j |], float_of_int ((i * cols) + j)) :: !entries;
      incr added
    end
  done;
  Dist_array.of_entries ~name:"iter" ~dims:[| rows; cols |] ~default:0.0
    !entries

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

(* a block's entries in scheduled order *)
let block_entries b =
  let out = ref [] in
  Schedule.iter_block (fun key v -> out := (key, v) :: !out) b;
  List.rev !out

let test_partition_2d_covers_all () =
  let iter = mk_iter () in
  let s =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:8
  in
  Alcotest.(check int) "all entries partitioned" (Dist_array.count iter)
    (Schedule.total_entries s)

let test_partition_2d_respects_boundaries () =
  let iter = mk_iter () in
  let s =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:4
  in
  let sb = s.Schedule.space_boundaries in
  let tb = Option.get s.Schedule.time_boundaries in
  Array.iteri
    (fun si row ->
      Array.iteri
        (fun ti b ->
          Schedule.iter_block
            (fun key _ ->
              Alcotest.(check bool) "row in space range" true
                (key.(0) >= sb.(si) && key.(0) < sb.(si + 1));
              Alcotest.(check bool) "col in time range" true
                (key.(1) >= tb.(ti) && key.(1) < tb.(ti + 1)))
            b)
        row)
    s.Schedule.blocks

let test_partition_1d_balanced_under_skew () =
  (* all entries in few rows: histogram partitioning must still spread
     entries across partitions reasonably *)
  let entries =
    List.concat_map
      (fun i -> List.init 50 (fun j -> ([| i; j |], 1.0)))
      [ 0; 1; 2; 3 ]
  in
  let iter =
    Dist_array.of_entries ~name:"skew" ~dims:[| 100; 50 |] ~default:0.0
      entries
  in
  let s = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  let sizes =
    Array.map
      (fun row -> Schedule.length row.(0))
      s.Schedule.blocks
  in
  Alcotest.(check int) "covers all" 200 (Array.fold_left ( + ) 0 sizes);
  Alcotest.(check bool) "no partition empty" true
    (Array.for_all (fun n -> n > 0) sizes)

let test_partition_unimodular_covers_all () =
  let iter = mk_iter ~rows:20 ~cols:20 ~n:150 () in
  (* wavefront matrix for deps {(1,-1),(0,1)} *)
  let matrix =
    match
      Orion_analysis.Unimodular.find_transform ~ndims:2
        [
          [| Orion_analysis.Depvec.Fin 1; Orion_analysis.Depvec.Fin (-1) |];
          [| Orion_analysis.Depvec.Fin 0; Orion_analysis.Depvec.Fin 1 |];
        ]
    with
    | Some m -> m
    | None -> Alcotest.fail "no transform"
  in
  let s =
    Schedule.partition_unimodular iter ~matrix ~space_parts:4 ~time_parts:6
  in
  Alcotest.(check int) "all entries" (Dist_array.count iter)
    (Schedule.total_entries s)

(* ------------------------------------------------------------------ *)
(* Executor: correctness                                               *)
(* ------------------------------------------------------------------ *)

let run_and_collect run =
  let seen : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let body ~worker:_ ~key ~value:_ =
    let k = (key.(0), key.(1)) in
    Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k))
  in
  let stats = run body in
  (seen, stats)

let test_executor_runs_each_entry_once () =
  let iter = mk_iter () in
  let cluster = mk_cluster () in
  let sched =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:8
  in
  let seen, stats =
    run_and_collect (fun body ->
        Executor.run cluster
          ~model:(Domain_exec.M_2d_unordered { depth = 2 })
          ~bytes_per_partition:100.0 sched body)
  in
  Alcotest.(check int) "entries executed" (Dist_array.count iter)
    stats.Executor.entries_executed;
  Hashtbl.iter
    (fun _ n -> Alcotest.(check int) "exactly once" 1 n)
    seen;
  Alcotest.(check int) "all keys seen" (Dist_array.count iter)
    (Hashtbl.length seen)

let test_executor_1d_and_ordered_run_all () =
  let iter = mk_iter () in
  let n = Dist_array.count iter in
  let c1 = mk_cluster () in
  let s1 = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  let _, st1 =
    run_and_collect (fun b -> Executor.run c1 ~model:Domain_exec.M_1d s1 b)
  in
  Alcotest.(check int) "1d all" n st1.Executor.entries_executed;
  let c2 = mk_cluster () in
  let s2 =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:4
  in
  let _, st2 =
    run_and_collect (fun b ->
        Executor.run c2 ~model:Domain_exec.M_2d_ordered
          ~bytes_per_partition:10.0 s2 b)
  in
  Alcotest.(check int) "ordered all" n st2.Executor.entries_executed;
  let c3 = mk_cluster () in
  let _, st3 =
    run_and_collect (fun b ->
        Executor.run c3 ~model:Domain_exec.M_time_major
          ~bytes_per_partition:10.0 s2 b)
  in
  Alcotest.(check int) "time-major all" n st3.Executor.entries_executed

(* serializability invariant of the unordered rotation: within one
   step, concurrently-executing blocks touch disjoint space AND time
   partitions *)
let test_unordered_step_blocks_disjoint () =
  let sp = 6 and tp = 12 and depth = 2 in
  for step = 0 to tp - 1 do
    let times = List.init sp (fun s -> ((s * depth) + step) mod tp) in
    let distinct = List.sort_uniq compare times in
    Alcotest.(check int)
      (Printf.sprintf "step %d time indices distinct" step)
      sp (List.length distinct)
  done

(* running SGD-MF via the unordered 2D schedule must produce the same
   quality as a serial pass: the schedule is serializable, so the loss
   after training must be as low as the serial one's *)
let mf_loss ratings w h rank =
  Dist_array.fold
    (fun acc key v ->
      let pred = ref 0.0 in
      for k = 0 to rank - 1 do
        pred := !pred +. (w.(k).(key.(0)) *. h.(k).(key.(1)))
      done;
      acc +. ((v -. !pred) ** 2.0))
    0.0 ratings

let mf_body ~rank ~step_size w h ~worker:_ ~key ~value =
  let i = key.(0) and j = key.(1) in
  let pred = ref 0.0 in
  for k = 0 to rank - 1 do
    pred := !pred +. (w.(k).(i) *. h.(k).(j))
  done;
  let diff = value -. !pred in
  for k = 0 to rank - 1 do
    let wk = w.(k).(i) and hk = h.(k).(j) in
    w.(k).(i) <- wk +. (2.0 *. step_size *. diff *. hk);
    h.(k).(j) <- hk +. (2.0 *. step_size *. diff *. wk)
  done

let mk_ratings rows cols rank =
  (* planted low-rank matrix *)
  let state = ref 42 in
  let randf () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int (!state mod 1000) /. 1000.0
  in
  let wt = Array.init rank (fun _ -> Array.init rows (fun _ -> randf ())) in
  let ht = Array.init rank (fun _ -> Array.init cols (fun _ -> randf ())) in
  let entries = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if (i + j) mod 3 = 0 then begin
        let v = ref 0.0 in
        for k = 0 to rank - 1 do
          v := !v +. (wt.(k).(i) *. ht.(k).(j))
        done;
        entries := ([| i; j |], !v) :: !entries
      end
    done
  done;
  Dist_array.of_entries ~name:"ratings" ~dims:[| rows; cols |] ~default:0.0
    !entries

let test_scheduled_mf_matches_serial_quality () =
  let rows = 30 and cols = 24 and rank = 4 in
  let ratings = mk_ratings rows cols rank in
  let train run_pass =
    let w = Array.init rank (fun _ -> Array.make rows 0.1) in
    let h = Array.init rank (fun _ -> Array.make cols 0.1) in
    for _ = 1 to 15 do
      run_pass (mf_body ~rank ~step_size:0.05 w h)
    done;
    mf_loss ratings w h rank
  in
  let serial_loss =
    train (fun body ->
        Dist_array.iter (fun key v -> body ~worker:0 ~key ~value:v) ratings)
  in
  let cluster = mk_cluster () in
  let sched =
    Schedule.partition_2d ratings ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:8
  in
  let sched_loss =
    train (fun body ->
        ignore
          (Executor.run cluster
             ~model:(Domain_exec.M_2d_unordered { depth = 2 })
             ~bytes_per_partition:0.0 sched body))
  in
  let initial =
    let w = Array.init rank (fun _ -> Array.make rows 0.1) in
    let h = Array.init rank (fun _ -> Array.make cols 0.1) in
    mf_loss ratings w h rank
  in
  Alcotest.(check bool)
    (Printf.sprintf "scheduled (%.4f) within 10%% of serial (%.4f), initial %.4f"
       sched_loss serial_loss initial)
    true
    (sched_loss < serial_loss *. 1.1 +. 1e-9 && sched_loss < initial /. 5.0)

(* ------------------------------------------------------------------ *)
(* Executor: time accounting shapes                                    *)
(* ------------------------------------------------------------------ *)

let test_unordered_faster_than_ordered () =
  (* Table 3's shape: with modeled per-entry cost and rotated data,
     relaxing the ordering wins by ~2x *)
  let iter = mk_iter ~rows:64 ~cols:64 ~n:2000 () in
  let body ~worker:_ ~key:_ ~value:_ = () in
  let per_entry = Executor.Per_entry 1e-4 in
  let rot = 1e6 in
  let c_ord = mk_cluster ~machines:4 ~wpm:1 () in
  let s_ord =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:4
  in
  let st_ord =
    Executor.run c_ord ~model:Domain_exec.M_2d_ordered ~compute:per_entry
      ~bytes_per_partition:rot s_ord body
  in
  let c_un = mk_cluster ~machines:4 ~wpm:1 () in
  let s_un =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:8
  in
  let st_un =
    Executor.run c_un ~compute:per_entry
      ~model:(Domain_exec.M_2d_unordered { depth = 2 })
      ~bytes_per_partition:(rot /. 2.0) s_un body
  in
  Alcotest.(check bool)
    (Printf.sprintf "unordered (%.4fs) beats ordered (%.4fs)"
       st_un.Executor.sim_time st_ord.Executor.sim_time)
    true
    (st_un.Executor.sim_time < st_ord.Executor.sim_time)

let test_more_workers_faster () =
  (* Fig 9a's shape: scaling workers reduces time per pass *)
  let iter = mk_iter ~rows:128 ~cols:128 ~n:4000 () in
  let body ~worker:_ ~key:_ ~value:_ = () in
  let per_entry = Executor.Per_entry 1e-4 in
  let time_for workers =
    let c = mk_cluster ~machines:workers ~wpm:1 () in
    let s =
      Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:workers
        ~time_parts:(workers * 2)
    in
    (Executor.run c ~compute:per_entry
       ~model:(Domain_exec.M_2d_unordered { depth = 2 })
       ~bytes_per_partition:1000.0 s body)
      .Executor.sim_time
  in
  let t2 = time_for 2 and t8 = time_for 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 workers (%.4fs) faster than 2 (%.4fs)" t8 t2)
    true (t8 < t2)

let test_serial_runs_on_worker_zero () =
  let iter = mk_iter ~n:100 () in
  let c = mk_cluster () in
  let st =
    Executor.run_serial c ~compute:(Executor.Per_entry 1e-3) iter
      (fun ~worker ~key:_ ~value:_ ->
        Alcotest.(check int) "worker 0" 0 worker)
  in
  Alcotest.(check int) "all entries" 100 st.Executor.entries_executed;
  Alcotest.(check (float 1e-9)) "time = n*cost" 0.1 st.Executor.sim_time

let test_measured_compute_positive () =
  let iter = mk_iter ~n:200 () in
  let c = mk_cluster () in
  let s = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  let st =
    Executor.run c ~model:Domain_exec.M_1d s (fun ~worker:_ ~key:_ ~value:_ ->
        ignore (sin 1.0))
  in
  Alcotest.(check bool) "measured compute > 0" true
    (st.Executor.compute_seconds > 0.0)

(* ------------------------------------------------------------------ *)
(* More schedule properties                                            *)
(* ------------------------------------------------------------------ *)

let test_shuffle_preserves_entries_qcheck () =
  QCheck.Test.make ~count:200 ~name:"shuffle is a permutation"
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      let b = Array.copy a in
      Schedule.shuffle_in_place ~seed b;
      List.sort compare (Array.to_list a)
      = List.sort compare (Array.to_list b))

let test_reshuffle_preserves_blocks () =
  let iter = mk_iter () in
  let s =
    Schedule.partition_2d ~shuffle_seed:1 iter ~space_dim:0 ~time_dim:1
      ~space_parts:4 ~time_parts:8
  in
  let sorted_block b =
    List.sort compare (block_entries b)
  in
  let before =
    Array.map (fun row -> Array.map sorted_block row) s.Schedule.blocks
  in
  Schedule.reshuffle s ~seed:99;
  let after =
    Array.map (fun row -> Array.map sorted_block row) s.Schedule.blocks
  in
  Alcotest.(check bool) "same entries per block" true (before = after);
  Alcotest.(check int) "total unchanged" (Dist_array.count iter)
    (Schedule.total_entries s)

let test_shuffled_schedule_covers_all () =
  let iter = mk_iter () in
  let with_shuffle =
    Schedule.partition_2d ~shuffle_seed:5 iter ~space_dim:0 ~time_dim:1
      ~space_parts:3 ~time_parts:6
  in
  let without =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:3
      ~time_parts:6
  in
  Alcotest.(check int) "same totals" (Schedule.total_entries without)
    (Schedule.total_entries with_shuffle)

let test_unimodular_time_partitions_are_exact () =
  (* each time partition must contain exactly one transformed-time
     value — grouping would allow intra-partition cross-space deps *)
  let iter = mk_iter ~rows:15 ~cols:15 ~n:100 () in
  let matrix = [| [| 2; 1 |]; [| -1; 0 |] |] in
  let s = Schedule.partition_unimodular iter ~matrix ~space_parts:4 ~time_parts:3 in
  Array.iter
    (fun row ->
      Array.iter
        (fun b ->
          let tvals =
            block_entries b
            |> List.map (fun (key, _) ->
                   (Orion_analysis.Unimodular.mat_vec matrix key).(0))
            |> List.sort_uniq compare
          in
          Alcotest.(check bool) "at most one t value per block" true
            (List.length tvals <= 1))
        row)
    s.Schedule.blocks

let test_pipeline_depth_reduces_wait () =
  (* deeper pipelining hides more of the rotation latency *)
  let iter = mk_iter ~rows:64 ~cols:64 ~n:2000 () in
  let body ~worker:_ ~key:_ ~value:_ = () in
  let time_for depth =
    let c = mk_cluster ~machines:4 ~wpm:1 () in
    let s =
      Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
        ~time_parts:(4 * depth)
    in
    (Executor.run c ~compute:(Executor.Per_entry 5e-6)
       ~model:(Domain_exec.M_2d_unordered { depth })
       ~bytes_per_partition:2e5 s body)
      .Executor.sim_time
  in
  let t1 = time_for 1 and t2 = time_for 2 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 2 (%.5f) <= depth 1 (%.5f)" t2 t1)
    true (t2 <= t1 +. 1e-12)

let test_empty_blocks_are_fine () =
  (* an iteration space much smaller than the partition grid leaves
     many empty blocks; execution must still cover everything *)
  let iter =
    Dist_array.of_entries ~name:"tiny" ~dims:[| 100; 100 |] ~default:0.0
      [ ([| 3; 7 |], 1.0); ([| 90; 90 |], 2.0) ]
  in
  let c = mk_cluster () in
  let s =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:8
  in
  let n = ref 0 in
  let stats =
    Executor.run c ~model:(Domain_exec.M_2d_unordered { depth = 2 })
      ~bytes_per_partition:10.0 s (fun ~worker:_ ~key:_ ~value:_ -> incr n)
  in
  Alcotest.(check int) "both entries" 2 !n;
  Alcotest.(check int) "stats agree" 2 stats.Executor.entries_executed

let test_single_worker_cluster () =
  (* degenerate cluster: everything runs on worker 0, still correct *)
  let iter = mk_iter ~n:50 () in
  let c = mk_cluster ~machines:1 ~wpm:1 () in
  let s =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:1
      ~time_parts:2
  in
  let stats =
    Executor.run c ~model:(Domain_exec.M_2d_unordered { depth = 2 })
      ~bytes_per_partition:10.0 s (fun ~worker ~key:_ ~value:_ ->
        Alcotest.(check int) "worker 0" 0 worker)
  in
  Alcotest.(check int) "covers all" 50 stats.Executor.entries_executed

let test_ordered_transfer_recorded_at_start () =
  (* regression: the rotated-partition transfer used to be recorded
     *after* Cluster.compute_raw had advanced the worker's clock past
     it, binning the bytes one transfer-window late in the Fig.-12
     bandwidth series *)
  let cost =
    {
      Cost_model.default with
      network_bandwidth_bytes_per_sec = 1.0;
      network_latency_sec = 0.0;
      marshal_cost_sec_per_byte = 0.0;
      barrier_cost_sec = 0.0;
    }
  in
  let recorder = Orion_sim.Recorder.create ~bin_width_sec:1.0 () in
  let cluster =
    Cluster.create ~recorder ~num_machines:2 ~workers_per_machine:1 ~cost ()
  in
  let iter =
    Dist_array.of_entries ~name:"iter" ~dims:[| 2; 2 |] ~default:0.0
      [ ([| 0; 0 |], 1.0); ([| 1; 1 |], 2.0) ]
  in
  let s =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:2
      ~time_parts:1
  in
  ignore
    (Executor.run cluster ~model:Domain_exec.M_2d_ordered
       ~compute:(Executor.Per_entry 0.0) ~bytes_per_partition:1.5 s
       (fun ~worker:_ ~key:_ ~value:_ -> ()));
  (* exactly one 1.5-byte rotation (space partition 1), at 1 B/s,
     starting from an aligned clock of 0: 1 byte lands in bin [0,1) and
     0.5 in bin [1,2).  The pre-fix code recorded the whole transfer at
     its *end* (t = 1.5), leaving bin 0 empty. *)
  let series = Orion_sim.Recorder.series recorder in
  Alcotest.(check (float 1e-9)) "bin 0 has the start" 1.0 series.(0);
  Alcotest.(check (float 1e-9)) "bin 1 has the tail" 0.5 series.(1);
  (* the trace span agrees with the recorder *)
  let transfers =
    Array.to_list (Orion_obs.Trace.spans cluster.Cluster.trace)
    |> List.filter (fun sp ->
           sp.Orion_obs.Trace.category = Orion_obs.Trace.Transfer)
  in
  match transfers with
  | [ sp ] ->
      Alcotest.(check (float 1e-9)) "span starts pre-advance" 0.0
        sp.Orion_obs.Trace.start_sec;
      Alcotest.(check (float 1e-9)) "span duration" 1.5
        sp.Orion_obs.Trace.duration_sec;
      Alcotest.(check (float 1e-9)) "span bytes" 1.5 sp.Orion_obs.Trace.bytes
  | l ->
      Alcotest.failf "expected exactly one transfer span, got %d"
        (List.length l)

(* ------------------------------------------------------------------ *)
(* Simulator pin: one fixed schedule under [Per_entry] cost, every     *)
(* model; the charges are recorded figures and must reproduce bitwise  *)
(* ------------------------------------------------------------------ *)

(* every cluster charge as one digest: worker, category, label, start,
   duration and bytes of each trace span, in recording order *)
let trace_digest (trace : Orion_obs.Trace.t) =
  let b = Stdlib.Buffer.create 4096 in
  Orion_obs.Trace.iter
    (fun (sp : Orion_obs.Trace.span) ->
      Printf.bprintf b "%d|%s|%s|%h|%h|%h\n" sp.worker
        (Orion_obs.Trace.category_to_string sp.category)
        sp.label sp.start_sec sp.duration_sec sp.bytes)
    trace;
  Digest.to_hex (Digest.string (Stdlib.Buffer.contents b))

(* recorded at the commit before the strategy loops became one walk:
   (sim_time, bytes_sent, steps, entries_executed, trace spans, trace
   digest) *)
let sim_pins =
  [
    ("1d", (0x1.beab367a0f909p-4, 0x0p+0, 1, 400, 8,
            "616462e4299b41284d33150cea91d420"));
    ("2d-ordered", (0x1.56f00dcd25c0ap-3, 0x1.ep+7, 11, 400, 124,
                    "2b550a393ff14db86f5ce6dc13b74af4"));
    ("2d-unordered", (0x1.beab616d2d551p-4, 0x1.9p+11, 8, 400, 98,
                      "095ba62a424dafb11a8733665bdf1a94"));
    ("time-major", (0x1.06f695d19693bp-3, 0x1.4p+8, 8, 400, 112,
                    "5cde65bc69e555e461ef6bc2a4ed82cc"));
  ]

let sim_pin_run name =
  let iter = mk_iter () in
  let cluster = mk_cluster () in
  let per_entry = Executor.Per_entry 1e-3 in
  let s2 =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:8
  in
  let body ~worker:_ ~key:_ ~value:_ = () in
  let st =
    match name with
    | "1d" ->
        Executor.run cluster ~model:Domain_exec.M_1d ~compute:per_entry
          (Schedule.partition_1d iter ~space_dim:0 ~space_parts:4)
          body
    | "2d-ordered" ->
        Executor.run cluster ~model:Domain_exec.M_2d_ordered ~compute:per_entry
          ~bytes_per_partition:10.0 s2 body
    | "2d-unordered" ->
        Executor.run cluster ~compute:per_entry
          ~model:(Domain_exec.M_2d_unordered { depth = 2 })
          ~bytes_per_partition:100.0 s2 body
    | _ ->
        Executor.run cluster ~model:Domain_exec.M_time_major ~compute:per_entry
          ~bytes_per_partition:10.0 s2 body
  in
  ( st,
    Orion_obs.Trace.length cluster.Cluster.trace,
    trace_digest cluster.Cluster.trace )

let test_sim_pinned () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (name, (sim_time, bytes_sent, steps, entries, spans, digest)) ->
      let st, n, d = sim_pin_run name in
      Alcotest.(check int64) (name ^ " sim_time") (bits sim_time)
        (bits st.Executor.sim_time);
      Alcotest.(check int64) (name ^ " bytes_sent") (bits bytes_sent)
        (bits st.Executor.bytes_sent);
      Alcotest.(check int) (name ^ " steps") steps st.Executor.steps;
      Alcotest.(check int) (name ^ " entries") entries
        st.Executor.entries_executed;
      Alcotest.(check int) (name ^ " trace spans") spans n;
      Alcotest.(check string) (name ^ " trace digest") digest d)
    sim_pins

(* ------------------------------------------------------------------ *)
(* Schedule goldens: each registered app's schedule at a fixed scale,  *)
(* fingerprinted (block shape, every block's keys in scheduled order). *)
(* The values were recorded from the earlier two-pass construction    *)
(* (histograms from [Dist_array.iter], blocks from                     *)
(* [Dist_array.entries]); every construction must reproduce them.     *)
(* ------------------------------------------------------------------ *)

let () = Orion_apps.Registry.ensure ()

(* (app, shuffled with the default seed, ascending in-block order) *)
let schedule_goldens =
  [
    ("mf", 1320764199690406066, 3724385241567741874);
    ("lda", 3989891792025888497, 3004140250786192625);
    ("slr", 3157024466433622580, 2510913144041235112);
    ("gbt", 381310155269868705, 2157053329484780641);
  ]

let test_schedule_golden (name, shuffled, ordered) () =
  let inst =
    match
      Orion_apps.Registry.materialize name ~scale:10.0 ~num_machines:2
        ~workers_per_machine:2
    with
    | Some i -> i
    | None -> Alcotest.failf "app %s missing from registry" name
  in
  let session = inst.Orion.App.inst_session in
  let iter = inst.Orion.App.inst_iter in
  let plan = Orion.analyze_loop session inst.Orion.App.inst_loop in
  let build shuffle_seed =
    (Orion.compile session ~plan ~iter ~shuffle_seed ()).Orion.schedule
  in
  let s = build (Some Schedule.default_shuffle_seed) in
  Alcotest.(check int) "shuffled" shuffled (Schedule.fingerprint s);
  Alcotest.(check int) "ascending" ordered (Schedule.fingerprint (build None))

(* Value goldens: [fingerprint] hashes keys only, so these pin what a
   schedule row carries.  One running CRC-32 over every block's entries
   in the tagged value codec of [Wire.row_frame]: the block's entries
   boxed into one tagged block, and the CRC taken over its count and
   then its entries (linearized key and value of each entry in
   scheduled order), skipping the kind byte between them.  Blocks in
   [space][time] order, for the shuffled and the ascending build of
   each app at the fingerprints' scale.  Recorded from the per-entry
   tuple schedule. *)
let value_goldens =
  [
    ("mf", 448545231l, -2092929277l);
    ("lda", -831909066l, -146377478l);
    ("slr", 197225901l, 1079051359l);
    ("gbt", -1799017356l, 946777253l);
  ]

let schedule_crc (s : Orion.Value.t Schedule.t) =
  let crc = Orion_store.Crc32.create () in
  let h = Orion_net.Frame.header_bytes in
  Array.iter
    (Array.iter (fun b ->
         let entries = ref [] in
         Schedule.iter_lin (fun lin v -> entries := (lin, v) :: !entries) b;
         let lins, values = List.split (List.rev !entries) in
         let tagged =
           Schedule.make_block ~dims:[| max_int |] (Array.of_list lins)
             (Array.of_list values)
         in
         let frame, _, _ = Orion_net.Wire.row_frame [| tagged |] [] in
         Orion_store.Crc32.update crc frame ~pos:h ~len:4;
         Orion_store.Crc32.update crc frame ~pos:(h + 5)
           ~len:(Bytes.length frame - h - 5)))
    s.Schedule.blocks;
  Orion_store.Crc32.value crc

let test_value_golden (name, shuffled, ordered) () =
  let inst =
    match
      Orion_apps.Registry.materialize name ~scale:10.0 ~num_machines:2
        ~workers_per_machine:2
    with
    | Some i -> i
    | None -> Alcotest.failf "app %s missing from registry" name
  in
  let session = inst.Orion.App.inst_session in
  let iter = inst.Orion.App.inst_iter in
  let plan = Orion.analyze_loop session inst.Orion.App.inst_loop in
  let crc shuffle_seed =
    schedule_crc
      (Orion.compile session ~plan ~iter ~shuffle_seed ()).Orion.schedule
  in
  Alcotest.(check int32) "shuffled" shuffled
    (crc (Some Schedule.default_shuffle_seed));
  Alcotest.(check int32) "ascending" ordered (crc None)

(* The schedule build allocates nothing per entry: its per-entry
   arrays are allocated whole (directly in the major heap), so minor
   allocation is a fixed cost.  Measured on a fresh mf instance, whose
   first compile also sorts the iteration space's keys. *)
let test_compile_allocation () =
  let inst =
    match
      Orion_apps.Registry.materialize "mf" ~scale:200.0 ~num_machines:2
        ~workers_per_machine:1
    with
    | Some i -> i
    | None -> Alcotest.fail "mf missing from registry"
  in
  let session = inst.Orion.App.inst_session in
  let iter = inst.Orion.App.inst_iter in
  let plan = Orion.analyze_loop session inst.Orion.App.inst_loop in
  let before = Gc.minor_words () in
  let c = Orion.compile session ~plan ~iter () in
  let words = Gc.minor_words () -. before in
  let entries = Dist_array.count iter in
  Alcotest.(check int) "every entry scheduled" entries
    (Schedule.total_entries c.Orion.schedule);
  if words > float_of_int entries then
    Alcotest.failf "compile allocated %.0f minor words for %d entries" words
      entries

(* Compiling a kernel looks at no value: over a float iteration space
   it takes the values unboxed, with no scan for their kind.  Its
   allocation on a 12k- and a 48k-entry mf instance must be the
   same up to a fixed allowance. *)
let test_compile_kernel_allocation () =
  let words scale =
    let inst =
      match
        Orion_apps.Registry.materialize "mf" ~scale ~num_machines:2
          ~workers_per_machine:1
      with
      | Some i -> i
      | None -> Alcotest.fail "mf missing from registry"
    in
    let env = inst.Orion.App.inst_make_env () in
    let before = Gc.minor_words () in
    (match Orion.Engine.compile_kernel inst env with
    | Some _ -> ()
    | None -> Alcotest.fail "mf kernel did not compile");
    (Dist_array.count inst.Orion.App.inst_iter, Gc.minor_words () -. before)
  in
  let small, w_small = words 50.0 and large, w_large = words 200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d entries, not %d" large small)
    true
    (large >= 3 * small);
  if w_large > w_small +. 512.0 then
    Alcotest.failf
      "compile_kernel allocated %.0f minor words over %d entries, %.0f over %d"
      w_large large w_small small

(* random sparse arrays of 1–3 dimensions, with duplicate draws *)
let gen_sparse =
  QCheck.Gen.(
    let* dims = array_size (int_range 1 3) (int_range 1 12) in
    let* keys =
      list_size (int_range 0 60)
        (map Array.of_list
           (flatten_l (Array.to_list (Array.map (fun d -> int_bound (d - 1)) dims))))
    in
    return (dims, keys))

let arb_sparse =
  QCheck.make
    ~print:(fun (dims, keys) ->
      Printf.sprintf "dims [%s], %d keys"
        (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
        (List.length keys))
    gen_sparse

let sparse_of (dims, keys) =
  let t = Dist_array.create_sparse ~name:"s" ~dims ~default:0.0 in
  List.iteri (fun i k -> Dist_array.set t k (float_of_int i)) keys;
  t

let qcheck_histogram_naive =
  QCheck.Test.make ~count:300 ~name:"histogram equals a naive count"
    arb_sparse (fun ((dims, _) as a) ->
      let t = sparse_of a in
      let stored = Hashtbl.create 16 in
      Dist_array.iter (fun key _ -> Hashtbl.replace stored key ()) t;
      let naive dim =
        let counts = Array.make dims.(dim) 0 in
        Hashtbl.iter (fun key () -> counts.(key.(dim)) <- counts.(key.(dim)) + 1) stored;
        counts
      in
      (* every dimension alone, then all of them from one pass *)
      let all = Array.init (Array.length dims) (fun d -> Array.length dims - 1 - d) in
      Array.for_all (fun dim -> Partitioner.histogram t ~dim = naive dim) all
      && Partitioner.histograms t ~dims:all = Array.map naive all)

let qcheck_traversal_ascending =
  QCheck.Test.make ~count:300 ~name:"iter/entries ascending, one per key"
    arb_sparse (fun ((_, keys) as a) ->
      let t = sparse_of a in
      let visited = ref [] in
      Dist_array.iter (fun key v -> visited := (Array.copy key, v) :: !visited) t;
      let visited = List.rev !visited in
      let entries = Array.to_list (Dist_array.entries t) in
      let folded =
        List.rev (Dist_array.fold (fun acc key v -> (key, v) :: acc) [] t)
      in
      let distinct = List.sort_uniq compare keys in
      let rec ascending = function
        | (a, _) :: ((b, _) :: _ as rest) -> compare a b < 0 && ascending rest
        | _ -> true
      in
      visited = entries && folded = entries && ascending entries
      && List.map fst entries = distinct
      && List.for_all (fun (k, v) -> Dist_array.get t k = v) entries)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "runtime"
    [
      ( "schedule",
        [
          tc "2d covers all" `Quick test_partition_2d_covers_all;
          tc "2d respects boundaries" `Quick test_partition_2d_respects_boundaries;
          tc "1d balanced under skew" `Quick test_partition_1d_balanced_under_skew;
          tc "unimodular covers all" `Quick test_partition_unimodular_covers_all;
          tc "compile allocates per block" `Quick test_compile_allocation;
          tc "compile_kernel allocation does not grow with entries" `Quick
            test_compile_kernel_allocation;
        ] );
      ( "goldens",
        List.map
          (fun ((name, _, _) as g) ->
            tc (name ^ " fingerprint") `Quick (test_schedule_golden g))
          schedule_goldens
        @ List.map
            (fun ((name, _, _) as g) ->
              tc (name ^ " values") `Quick (test_value_golden g))
            value_goldens
        @ [ qc qcheck_histogram_naive; qc qcheck_traversal_ascending ] );
      ( "executor",
        [
          tc "each entry once" `Quick test_executor_runs_each_entry_once;
          tc "1d/ordered/time-major all" `Quick test_executor_1d_and_ordered_run_all;
          tc "step blocks disjoint" `Quick test_unordered_step_blocks_disjoint;
          tc "scheduled MF quality" `Quick test_scheduled_mf_matches_serial_quality;
        ] );
      ( "timing",
        [
          tc "unordered beats ordered" `Quick test_unordered_faster_than_ordered;
          tc "more workers faster" `Quick test_more_workers_faster;
          tc "serial on worker 0" `Quick test_serial_runs_on_worker_zero;
          tc "measured compute" `Quick test_measured_compute_positive;
          tc "ordered transfer recorded at start" `Quick
            test_ordered_transfer_recorded_at_start;
          tc "simulator charges pinned" `Quick test_sim_pinned;
        ] );
      ( "properties",
        [
          qc (test_shuffle_preserves_entries_qcheck ());
          tc "reshuffle preserves blocks" `Quick test_reshuffle_preserves_blocks;
          tc "shuffled covers all" `Quick test_shuffled_schedule_covers_all;
          tc "unimodular exact time parts" `Quick
            test_unimodular_time_partitions_are_exact;
          tc "pipeline depth reduces wait" `Quick test_pipeline_depth_reduces_wait;
          tc "empty blocks" `Quick test_empty_blocks_are_fine;
          tc "single worker" `Quick test_single_worker_cluster;
        ] );
    ]
