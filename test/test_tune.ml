(* Tests for lib/tune: the measured cost table and the re-costing of
   the planner's candidates behind [orion explain --measured]. *)

module Telemetry = Orion.Telemetry
module Plan = Orion.Plan
module Cost_table = Orion_tune.Cost_table
module Measured = Orion_tune.Measured

let tc = Alcotest.test_case

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
      Alcotest.(check (float 1e-9)) "straggler" 1.5 t.ct_straggler

let test_cost_table_empty () =
  match Orion_tune.Cost_table.of_costs ~sp:2 ~pass:3 [] with
  | None -> ()
  | Some _ -> Alcotest.fail "no measurements must give no table"

(* ------------------------------------------------------------------ *)
(* Measured re-costing of the planner's candidates                     *)
(* ------------------------------------------------------------------ *)

(* Two space partitions that ran 0.6 s over 60 entries and 0.2 s over
   40: 0.8 s in all, 0.008 s per entry, straggler 1.5. *)
let skewed_table =
  let part p s e =
    {
      Cost_table.pc_space = p;
      pc_seconds = s;
      pc_entries = e;
      pc_sec_per_entry = s /. float_of_int e;
    }
  in
  {
    Cost_table.ct_pass = 1;
    ct_parts = [| part 0 0.6 60; part 1 0.2 40 |];
    ct_total_seconds = 0.8;
    ct_max_seconds = 0.6;
    ct_mean_seconds = 0.4;
    ct_straggler = 1.5;
    ct_sec_per_entry = 0.008;
  }

(* the same work spread evenly: the max partition is the mean *)
let balanced_table =
  { skewed_table with Cost_table.ct_max_seconds = 0.4; ct_straggler = 1.0 }

let cand ~chosen ~cost strategy =
  {
    Plan.cand_strategy = strategy;
    cand_placements = [];
    cand_cost = cost;
    cand_chosen = chosen;
  }

let one_d = Plan.One_d { space_dim = 0 }
let two_d = Plan.Two_d { space_dim = 0; time_dim = 1 }

(* A real plan whose decision tree is replaced by two hand-built
   candidates: the static choice 1D moves 10 elements, the rejected
   2D alternative 20. *)
let plan =
  lazy
    (Orion_apps.Registry.ensure ();
     let inst =
       (Option.get (Orion.App.find "mf")).Orion.App.app_make ~num_machines:2
         ~workers_per_machine:1 ()
     in
     let p =
       Orion.analyze_loop inst.Orion.App.inst_session inst.Orion.App.inst_loop
     in
     {
       p with
       Plan.provenance =
         {
           p.Plan.provenance with
           Plan.considered =
             [ cand ~chosen:true ~cost:10.0 one_d;
               cand ~chosen:false ~cost:20.0 two_d ];
         };
     })

let recost table =
  match Measured.recost table (Lazy.force plan) with
  | [ chosen; alt ] -> (chosen, alt)
  | l -> Alcotest.failf "expected 2 re-costed candidates, got %d" (List.length l)

let test_recost_chosen () =
  let chosen, _ = recost skewed_table in
  Alcotest.(check bool) "static choice kept" true
    chosen.Measured.mc_candidate.Plan.cand_chosen;
  Alcotest.(check (float 1e-12))
    "observed max-partition seconds + elements x s/entry"
    (0.6 +. (10.0 *. 0.008))
    chosen.Measured.mc_measured_cost

let test_recost_alternative () =
  let _, alt = recost skewed_table in
  Alcotest.(check (float 1e-12))
    "total / parts + elements x s/entry"
    ((0.8 /. 2.0) +. (20.0 *. 0.008))
    alt.Measured.mc_measured_cost

let test_recost_flip () =
  (* balanced: 0.4 + 0.08 beats 0.4 + 0.16, the static choice holds *)
  let chosen, alt = recost balanced_table in
  Alcotest.(check (pair bool bool)) "balanced: no flip" (true, false)
    (chosen.Measured.mc_measured_chosen, alt.Measured.mc_measured_chosen);
  (* skewed: the chosen 1D pays its straggler, 0.68 s against 0.56 s *)
  let chosen, alt = recost skewed_table in
  Alcotest.(check (pair bool bool)) "skewed: flips to the alternative"
    (false, true)
    (chosen.Measured.mc_measured_chosen, alt.Measured.mc_measured_chosen)

let () =
  Alcotest.run "tune"
    [
      ( "cost_table",
        [
          tc "aggregates one pass" `Quick test_cost_table_aggregates;
          tc "empty measurements" `Quick test_cost_table_empty;
        ] );
      ( "measured",
        [
          tc "chosen pays observed max partition" `Quick test_recost_chosen;
          tc "alternatives pay balanced share" `Quick test_recost_alternative;
          tc "flip detected" `Quick test_recost_flip;
        ] );
    ]
