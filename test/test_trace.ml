(* Tests for the worker-timeline tracer and the per-pass metrics
   derived from it: span bookkeeping, the exporters, and the aggregate
   definitions (straggler ratio, barrier-wait fraction, comm/compute
   overlap, bytes by DistArray). *)

module Trace = Orion_obs.Trace
module Metrics = Orion_obs.Metrics
module Cluster = Orion_sim.Cluster
module Cost_model = Orion_sim.Cost_model
open Orion_runtime

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_add_and_read_back () =
  let t = Trace.create () in
  Trace.add t ~worker:1 ~category:Trace.Compute ~label:"blk" ~start_sec:0.5
    ~duration_sec:2.0;
  Trace.add t ~worker:0 ~category:Trace.Transfer ~bytes:64.0 ~start_sec:1.0
    ~duration_sec:0.25;
  Alcotest.(check int) "two spans" 2 (Trace.length t);
  let s = (Trace.spans t).(0) in
  Alcotest.(check int) "worker" 1 s.Trace.worker;
  Alcotest.(check string) "label" "blk" s.Trace.label;
  Alcotest.(check (float 0.0)) "start" 0.5 s.Trace.start_sec;
  Alcotest.(check (float 0.0)) "duration" 2.0 s.Trace.duration_sec;
  Trace.reset t;
  Alcotest.(check int) "reset empties" 0 (Trace.length t)

let test_elides_empty_and_disabled () =
  let t = Trace.create () in
  (* zero-duration, zero-byte spans are noise and are elided *)
  Trace.add t ~worker:0 ~category:Trace.Compute ~start_sec:1.0
    ~duration_sec:0.0;
  Alcotest.(check int) "zero span elided" 0 (Trace.length t);
  (* ... but an instantaneous transfer carrying bytes is kept *)
  Trace.add t ~worker:0 ~category:Trace.Transfer ~bytes:8.0 ~start_sec:1.0
    ~duration_sec:0.0;
  Alcotest.(check int) "bytes-carrying span kept" 1 (Trace.length t);
  Trace.set_enabled t false;
  Trace.add t ~worker:0 ~category:Trace.Compute ~start_sec:2.0
    ~duration_sec:5.0;
  Alcotest.(check int) "disabled drops" 1 (Trace.length t)

let test_cap_counts_dropped () =
  let t = Trace.create ~max_spans:3 () in
  for i = 0 to 9 do
    Trace.add t ~worker:0 ~category:Trace.Compute
      ~start_sec:(float_of_int i) ~duration_sec:1.0
  done;
  Alcotest.(check int) "capped" 3 (Trace.length t);
  Alcotest.(check int) "dropped counted" 7 (Trace.dropped t)

let test_chrome_json_shape () =
  let t = Trace.create () in
  Trace.add t ~worker:1 ~category:Trace.Transfer ~label:"H \"q\""
    ~bytes:1920.0 ~start_sec:0.001 ~duration_sec:0.002;
  let json = Trace.to_chrome_json ~pid_of_worker:(fun _ -> 7) t in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true (go 0)
  in
  contains "\"schema_version\":";
  contains "\"kind\":\"trace\"";
  contains "\"traceEvents\":[";
  contains "\"ph\":\"X\"";
  contains "\"cat\":\"transfer\"";
  (* seconds exported as microseconds *)
  contains "\"ts\":1000.000";
  contains "\"dur\":2000.000";
  contains "\"pid\":7,\"tid\":1";
  contains "\"args\":{\"bytes\":1920}";
  (* label quotes are escaped *)
  contains "H \\\"q\\\""

let test_csv_shape () =
  let t = Trace.create () in
  Trace.add t ~worker:2 ~category:Trace.Marshal ~label:"a,b" ~start_sec:1.0
    ~duration_sec:0.5;
  let csv = Trace.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int)
    "version + dropped + header + one row" 4 (List.length lines);
  Alcotest.(check string) "schema comment"
    (Printf.sprintf "# schema_version %d" Orion_report.schema_version)
    (List.hd lines);
  Alcotest.(check string) "dropped comment" "# dropped 0" (List.nth lines 1);
  Alcotest.(check string) "header" Trace.csv_header (List.nth lines 2);
  (* commas in labels must not break the column structure *)
  Alcotest.(check string) "row" "2,marshal,a;b,1.000000000,0.500000000,0"
    (List.nth lines 3)

(* ------------------------------------------------------------------ *)
(* Metrics over hand-built spans                                       *)
(* ------------------------------------------------------------------ *)

let test_metrics_overlap_and_bytes () =
  let t = Trace.create () in
  (* worker 0 computes over [0, 10]; worker 1 transfers over [5, 15]:
     half the transfer union is covered by compute *)
  Trace.add t ~worker:0 ~category:Trace.Compute ~start_sec:0.0
    ~duration_sec:10.0;
  Trace.add t ~worker:1 ~category:Trace.Transfer ~label:"H" ~bytes:100.0
    ~start_sec:5.0 ~duration_sec:10.0;
  Trace.add t ~worker:1 ~category:Trace.Transfer ~label:"W" ~bytes:40.0
    ~start_sec:5.0 ~duration_sec:1.0;
  let m = Metrics.of_trace ~num_workers:2 t in
  Alcotest.(check (float 1e-9)) "overlap" 0.5 m.Metrics.comm_compute_overlap;
  Alcotest.(check (float 1e-9)) "total bytes" 140.0 m.Metrics.total_bytes;
  Alcotest.(check (list (pair string (float 1e-9))))
    "bytes by label, largest first"
    [ ("H", 100.0); ("W", 40.0) ]
    m.Metrics.bytes_by_label;
  Alcotest.(check (float 1e-9)) "busy w0" 10.0 m.Metrics.busy_per_worker.(0);
  Alcotest.(check (float 1e-9)) "busy w1" 11.0 m.Metrics.busy_per_worker.(1);
  Alcotest.(check (float 1e-9)) "window end" 15.0 m.Metrics.window_end

let test_metrics_barrier_fraction_and_since () =
  let t = Trace.create () in
  Trace.add t ~worker:0 ~category:Trace.Compute ~start_sec:0.0
    ~duration_sec:3.0;
  Trace.add t ~worker:0 ~category:Trace.Barrier_wait ~start_sec:3.0
    ~duration_sec:1.0;
  let m = Metrics.of_trace ~num_workers:1 t in
  Alcotest.(check (float 1e-9)) "barrier fraction" 0.25
    m.Metrics.barrier_wait_fraction;
  (* scoping: only spans starting at or after [since] count *)
  let m2 = Metrics.of_trace ~since:2.5 ~num_workers:1 t in
  Alcotest.(check (float 1e-9)) "since drops earlier compute" 0.0
    m2.Metrics.compute_sec;
  Alcotest.(check (float 1e-9)) "since keeps the barrier" 1.0
    m2.Metrics.barrier_wait_sec

let test_metrics_empty_trace () =
  let m = Metrics.of_trace ~num_workers:4 (Trace.create ()) in
  Alcotest.(check (float 0.0)) "straggler defaults to 1" 1.0
    m.Metrics.straggler_ratio;
  Alcotest.(check (float 0.0)) "no overlap" 0.0 m.Metrics.comm_compute_overlap;
  Alcotest.(check (float 0.0)) "no barrier" 0.0 m.Metrics.barrier_wait_fraction

(* ------------------------------------------------------------------ *)
(* Metrics over executor runs                                          *)
(* ------------------------------------------------------------------ *)

let simple_cost =
  {
    Cost_model.default with
    language_overhead = 1.0;
    marshal_cost_sec_per_byte = 0.0;
  }

(* a dense 4-row iteration space: every row has [cols] entries, so a
   4-way 1D partition is exactly balanced *)
let balanced_iter ~cols =
  let entries = ref [] in
  for i = 0 to 3 do
    for j = 0 to cols - 1 do
      entries := ([| i; j |], 1.0) :: !entries
    done
  done;
  Orion_dsm.Dist_array.of_entries ~name:"iter" ~dims:[| 4; cols |] ~default:0.0
    !entries

let test_1d_spans_sum_to_busy () =
  let cluster =
    Cluster.create ~num_machines:2 ~workers_per_machine:2 ~cost:simple_cost ()
  in
  let iter = balanced_iter ~cols:25 in
  let s = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  let per_entry = 1e-3 in
  ignore
    (Executor.run cluster ~model:Domain_exec.M_1d
       ~compute:(Executor.Per_entry per_entry) s
       (fun ~worker:_ ~key:_ ~value:_ -> ()));
  let m = Cluster.metrics cluster in
  (* each worker's compute spans must add up to exactly its charged
     busy time: entries x per-entry cost *)
  Array.iteri
    (fun w busy ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "worker %d busy" w)
        (25.0 *. per_entry) busy)
    m.Metrics.busy_per_worker;
  Alcotest.(check (float 1e-9)) "total compute" (100.0 *. per_entry)
    m.Metrics.compute_sec

let test_1d_balanced_straggler_is_one () =
  let cluster =
    Cluster.create ~num_machines:2 ~workers_per_machine:2 ~cost:simple_cost ()
  in
  let iter = balanced_iter ~cols:10 in
  let s = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  ignore
    (Executor.run cluster ~model:Domain_exec.M_1d
       ~compute:(Executor.Per_entry 1e-3) s
       (fun ~worker:_ ~key:_ ~value:_ -> ()));
  let m = Cluster.metrics cluster in
  Alcotest.(check (float 1e-9)) "straggler" 1.0 m.Metrics.straggler_ratio

let test_pass_scoping_with_since () =
  (* two passes on one cluster: metrics scoped with [since] must only
     see the second pass *)
  let cluster =
    Cluster.create ~num_machines:2 ~workers_per_machine:2 ~cost:simple_cost ()
  in
  let iter = balanced_iter ~cols:10 in
  let s = Schedule.partition_1d iter ~space_dim:0 ~space_parts:4 in
  let body ~worker:_ ~key:_ ~value:_ = () in
  ignore
    (Executor.run cluster ~model:Domain_exec.M_1d
       ~compute:(Executor.Per_entry 1e-3) s body);
  let since = Cluster.now cluster in
  ignore
    (Executor.run cluster ~model:Domain_exec.M_1d
       ~compute:(Executor.Per_entry 1e-3) s body);
  let whole = Cluster.metrics cluster in
  let second = Cluster.metrics ~since cluster in
  Alcotest.(check (float 1e-9)) "whole run sees both passes"
    (2.0 *. second.Metrics.compute_sec)
    whole.Metrics.compute_sec;
  Alcotest.(check bool) "window starts at the pass" true
    (second.Metrics.window_start >= since)

let test_unordered_2d_emits_transfer_spans () =
  let cluster =
    Cluster.create ~num_machines:2 ~workers_per_machine:2 ~cost:simple_cost ()
  in
  let iter = balanced_iter ~cols:16 in
  let s =
    Schedule.partition_2d iter ~space_dim:0 ~time_dim:1 ~space_parts:4
      ~time_parts:4
  in
  ignore
    (Executor.run cluster ~compute:(Executor.Per_entry 1e-4)
       ~model:(Domain_exec.M_2d_unordered { depth = 2 })
       ~label:"H" ~bytes_per_partition:1000.0 s
       (fun ~worker:_ ~key:_ ~value:_ -> ()));
  let m = Cluster.metrics cluster in
  let h_bytes = List.assoc_opt "H" m.Metrics.bytes_by_label in
  Alcotest.(check bool) "rotation bytes attributed to H" true
    (match h_bytes with Some b -> b > 0.0 | None -> false);
  (* every byte the cluster counted is attributed to some label *)
  Alcotest.(check (float 1e-6)) "bytes reconcile"
    cluster.Cluster.bytes_sent m.Metrics.total_bytes

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "trace"
    [
      ( "tracer",
        [
          tc "add/read back" `Quick test_add_and_read_back;
          tc "elides empty + disabled" `Quick test_elides_empty_and_disabled;
          tc "cap counts dropped" `Quick test_cap_counts_dropped;
          tc "chrome json shape" `Quick test_chrome_json_shape;
          tc "csv shape" `Quick test_csv_shape;
        ] );
      ( "metrics",
        [
          tc "overlap + bytes by label" `Quick test_metrics_overlap_and_bytes;
          tc "barrier fraction + since" `Quick
            test_metrics_barrier_fraction_and_since;
          tc "empty trace" `Quick test_metrics_empty_trace;
        ] );
      ( "executor metrics",
        [
          tc "1d spans sum to busy" `Quick test_1d_spans_sum_to_busy;
          tc "balanced 1d straggler is 1" `Quick
            test_1d_balanced_straggler_is_one;
          tc "pass scoping with since" `Quick test_pass_scoping_with_since;
          tc "unordered 2d transfer spans" `Quick
            test_unordered_2d_emits_transfer_spans;
        ] );
    ]
