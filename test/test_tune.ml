(* Tests for lib/tune: the measured cost table, the weighted
   re-balance (valid cover + strict improvement on forced skew), the
   race-checker gate on candidate schedules, and the end-to-end
   adaptive runs (parallel and distributed) with replay equality. *)

module Partitioner = Orion.Partitioner
module Telemetry = Orion.Telemetry
module Schedule = Orion.Schedule
module Race = Orion_verify.Race

let tc = Alcotest.test_case

(* the adaptive tests run the domain pool in-process, after which
   Unix.fork is off the table — exec the worker binary (a declared
   test dep) for the distributed cases instead *)
let () =
  let worker =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/orion_worker.exe"
  in
  Unix.putenv Orion_net.Dist_master.spawn_env ("exec:" ^ worker)

(* ------------------------------------------------------------------ *)
(* Weighted re-balance: valid cover for arbitrary cost tables          *)
(* ------------------------------------------------------------------ *)

(* valid cover under the partitioner's documented clamping: never more
   partitions than indices, at least one even for an empty dimension *)
let check_cover ~n ~parts (b : Partitioner.boundaries) =
  let parts = max 1 (min parts n) in
  Array.length b = parts + 1
  && b.(0) = 0
  && b.(parts) = n
  && Array.for_all (fun ok -> ok)
       (Array.init parts (fun p -> b.(p) <= b.(p + 1)))

let qcheck_weighted_cover =
  QCheck.Test.make ~count:500
    ~name:"weighted_ranges is a valid cover for random cost tables"
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 64) (float_range 0.0 100.0)))
    (fun (parts, ws) ->
      let weights = Array.of_list ws in
      let n = Array.length weights in
      let b = Partitioner.weighted_ranges ~weights ~parts in
      check_cover ~n ~parts b)

let qcheck_weighted_cover_degenerate =
  QCheck.Test.make ~count:200
    ~name:"weighted_ranges covers even all-zero / tiny tables"
    QCheck.(pair (int_range 1 6) (int_range 1 40))
    (fun (parts, n) ->
      let b =
        Partitioner.weighted_ranges ~weights:(Array.make n 0.0) ~parts
      in
      check_cover ~n ~parts b)

(* ------------------------------------------------------------------ *)
(* Forced skew: the weighted split strictly reduces max-partition cost *)
(* ------------------------------------------------------------------ *)

let max_part_weight (weights : float array) (b : Partitioner.boundaries) =
  let parts = Array.length b - 1 in
  let m = ref 0.0 in
  for p = 0 to parts - 1 do
    let acc = ref 0.0 in
    for i = b.(p) to b.(p + 1) - 1 do
      acc := !acc +. weights.(i)
    done;
    m := Float.max !m !acc
  done;
  !m

let test_weighted_beats_equal_on_skew () =
  (* front-loaded work, the shape generate_skewed produces: a
     count-balanced (= equal) split puts nearly all of it in part 0 *)
  let n = 512 in
  let weights =
    Array.init n (fun i -> 20.0 /. (1.0 +. (19.0 *. float_of_int i /. 512.0)))
  in
  List.iter
    (fun parts ->
      let equal = Partitioner.equal_ranges ~dim_size:n ~parts in
      let weighted = Partitioner.weighted_ranges ~weights ~parts in
      let before = max_part_weight weights equal
      and after = max_part_weight weights weighted in
      Alcotest.(check bool)
        (Printf.sprintf "parts=%d: weighted max %.1f < equal max %.1f" parts
           after before)
        true (after < before))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Cost table aggregation                                              *)
(* ------------------------------------------------------------------ *)

let bc ~pass ~space ~time ~seconds ~entries =
  {
    Telemetry.bc_pass = pass;
    bc_space = space;
    bc_time = time;
    bc_seconds = seconds;
    bc_entries = entries;
  }

let test_cost_table_aggregates () =
  let costs =
    [
      bc ~pass:1 ~space:0 ~time:0 ~seconds:0.3 ~entries:30;
      bc ~pass:1 ~space:0 ~time:1 ~seconds:0.3 ~entries:30;
      bc ~pass:1 ~space:1 ~time:0 ~seconds:0.2 ~entries:40;
      (* a different pass must be ignored *)
      bc ~pass:0 ~space:1 ~time:0 ~seconds:9.9 ~entries:999;
    ]
  in
  match Orion_tune.Cost_table.of_costs ~sp:2 ~pass:1 costs with
  | None -> Alcotest.fail "expected a cost table"
  | Some t ->
      let open Orion_tune.Cost_table in
      Alcotest.(check int) "pass" 1 t.ct_pass;
      Alcotest.(check (float 1e-9)) "part0 seconds" 0.6 t.ct_parts.(0).pc_seconds;
      Alcotest.(check int) "part0 entries" 60 t.ct_parts.(0).pc_entries;
      Alcotest.(check (float 1e-9)) "total" 0.8 t.ct_total_seconds;
      Alcotest.(check (float 1e-9)) "max" 0.6 t.ct_max_seconds;
      Alcotest.(check (float 1e-9)) "straggler" 1.5 t.ct_straggler;
      Alcotest.(check (float 1e-9)) "rate part0" (0.6 /. 60.0)
        (rate_at t ~boundaries:[| 0; 60; 100 |] 10);
      Alcotest.(check (float 1e-9)) "rate part1" (0.2 /. 40.0)
        (rate_at t ~boundaries:[| 0; 60; 100 |] 99)

let test_cost_table_empty () =
  match Orion_tune.Cost_table.of_costs ~sp:2 ~pass:3 [] with
  | None -> ()
  | Some _ -> Alcotest.fail "no measurements must give no table"

(* ------------------------------------------------------------------ *)
(* Race-checker gate: random weighted cuts of a real app's schedule    *)
(* ------------------------------------------------------------------ *)

let find_app name =
  Orion_apps.Registry.ensure ();
  match Orion.App.find name with
  | Some a -> a
  | None -> Alcotest.fail (name ^ " app missing from registry")

(* One serial observation (edges are keyed by iteration keys, so they
   are valid for every candidate cut of the same data), then many
   random weight tables -> weighted cut -> rebuilt schedule -> race
   check.  This is exactly the gate Replanner.make runs per candidate. *)
let test_random_rebalance_race_clean () =
  let app = find_app "slrskew" in
  let inst = app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 () in
  let plan = Orion.analyze_loop inst.Orion.App.inst_session inst.inst_loop in
  let compiled =
    Orion.compile inst.inst_session ~plan ~iter:inst.inst_iter ()
  in
  let sched0 = compiled.Orion.schedule in
  let sp = sched0.Schedule.space_parts
  and tp = sched0.Schedule.time_parts in
  let fresh = app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 () in
  let log = Orion_verify.Verify.observe fresh in
  let edges =
    Orion_verify.Depobserve.edges ~ordered:plan.Orion.Plan.ordered
      ~skip_arrays:fresh.Orion.App.inst_buffered log
  in
  let n = inst.inst_iter.Orion_dsm.Dist_array.dims.(0) in
  let rng = Random.State.make [| 42 |] in
  for _trial = 1 to 10 do
    let weights =
      Array.init n (fun _ -> 0.01 +. Random.State.float rng 10.0)
    in
    let nb = Partitioner.weighted_ranges ~weights ~parts:sp in
    Alcotest.(check bool) "cover" true (check_cover ~n ~parts:sp nb);
    let sched =
      match
        Schedule.rebalance plan.Orion.Plan.strategy inst.inst_iter
          ~space_boundaries:nb ~time_parts:tp
      with
      | Some s -> s
      | None -> Alcotest.fail "slrskew's 1D schedule must re-balance"
    in
    let model =
      Race.model_of_plan plan ~pipeline_depth:compiled.Orion.pipeline_depth
        ~sp ~tp
    in
    let race = Race.build model ~workers:sp sched in
    let violations = Race.check race ~ordered:plan.Orion.Plan.ordered edges in
    Alcotest.(check int) "race-checker clean" 0 (List.length violations)
  done

(* ------------------------------------------------------------------ *)
(* End-to-end adaptive runs                                            *)
(* ------------------------------------------------------------------ *)

let test_adaptive_parallel () =
  let app = find_app "slrskew" in
  let r =
    Orion_tune.Tune_bench.run_app ~app ~mode:(`Parallel 2) ~passes:3
      ~scale:2.0 ~num_machines:2 ~workers_per_machine:1 ()
  in
  (* the re-planner runs at pass boundaries: passes - 1 of them *)
  Alcotest.(check int) "every decision logged" 2
    (List.length r.Orion_tune.Tune_bench.tb_decisions);
  Alcotest.(check int) "no adopted re-plan skipped validation" 0
    r.Orion_tune.Tune_bench.tb_adopted_unvalidated;
  Alcotest.(check bool) "replay of adopted sequence matches" true
    r.Orion_tune.Tune_bench.tb_replay_equal

let test_adaptive_distributed () =
  let app = find_app "slrskew" in
  let r =
    Orion_tune.Tune_bench.run_app ~app
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes:3 ~scale:2.0 ~num_machines:2 ~workers_per_machine:1 ()
  in
  Alcotest.(check int) "no adopted re-plan skipped validation" 0
    r.Orion_tune.Tune_bench.tb_adopted_unvalidated;
  Alcotest.(check bool) "replay of adopted sequence matches" true
    r.Orion_tune.Tune_bench.tb_replay_equal

(* A scripted re-plan forces a mid-run migration in the distributed
   backend (wire v5 Repartition), and the result must agree with an
   undisturbed static run: slrskew buffers its updates, so the final
   model is partition-independent up to float summation order. *)
let test_distributed_migration_preserves_result () =
  let app = find_app "slrskew" in
  let make () =
    app.Orion.App.app_make ~scale:2.0 ~num_machines:2 ~workers_per_machine:1 ()
  in
  let s_inst = make () in
  let _ =
    Orion.Engine.run s_inst.Orion.App.inst_session s_inst
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes:3 ~scale:2.0 ()
  in
  let m_inst = make () in
  let n = m_inst.Orion.App.inst_iter.Orion_dsm.Dist_array.dims.(0) in
  let forced =
    {
      Orion.Engine.rp_space_boundaries = Some [| 0; n / 4; n |];
      rp_pipeline_depth = None;
      rp_strategy = None;
      rp_reason = "forced migration (test)";
    }
  in
  let replay = Orion_tune.Replanner.scripted [ (0, forced) ] in
  let _ =
    Orion.Engine.run m_inst.Orion.App.inst_session m_inst
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes:3 ~scale:2.0 ~replanner:replay.Orion_tune.Replanner.fn ()
  in
  List.iter
    (fun (name, arr) ->
      match List.assoc_opt name m_inst.Orion.App.inst_outputs with
      | None -> Alcotest.fail ("missing output " ^ name)
      | Some other ->
          Alcotest.(check bool)
            (name ^ " unchanged by migration")
            true
            (Orion_dsm.Dist_array.diff_ok
               ~tolerance:app.Orion.App.app_tolerance
               (Orion_dsm.Dist_array.diff_arrays name arr other)))
    s_inst.Orion.App.inst_outputs

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tune"
    [
      ( "rebalance",
        [
          qc qcheck_weighted_cover;
          qc qcheck_weighted_cover_degenerate;
          tc "forced skew strictly improves" `Quick
            test_weighted_beats_equal_on_skew;
        ] );
      ( "cost_table",
        [
          tc "aggregates one pass" `Quick test_cost_table_aggregates;
          tc "empty measurements" `Quick test_cost_table_empty;
        ] );
      ( "race_gate",
        [ tc "random rebalances race-clean" `Slow
            test_random_rebalance_race_clean ] );
      ( "adaptive",
        [
          tc "parallel slrskew" `Slow test_adaptive_parallel;
          tc "distributed slrskew" `Slow test_adaptive_distributed;
          tc "distributed forced migration" `Slow
            test_distributed_migration_preserves_result;
        ] );
    ]
