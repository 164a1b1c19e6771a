(* Tests for the multi-process distributed runtime (lib/net): partition
   serialization, wire framing, happens-before acyclicity, end-to-end
   equivalence of [`Distributed] runs against the simulated executor
   for every registered app, transport/spawn variants, determinism, and
   the structured failure path under fault injection. *)

open Orion_dsm
open Orion_runtime
module Verify = Orion_verify.Verify

let tc = Alcotest.test_case
let qc = QCheck_alcotest.to_alcotest
let () = Orion_apps.Registry.ensure ()

(* keep the suite hermetic: in-process fork workers, bounded waits *)
let () = Unix.putenv Orion_net.Dist_master.spawn_env "fork"
let () = Unix.putenv Orion_net.Dist_worker.timeout_env "60"

(* ------------------------------------------------------------------ *)
(* Partition serialization round-trip (shared by lib/net and           *)
(* checkpointing)                                                      *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let qcheck_partition_roundtrip =
  QCheck.Test.make ~count:200 ~name:"partition marshal round-trip"
    QCheck.(
      triple bool
        (list_of_size (Gen.int_range 1 3) (int_range 1 5))
        (small_list (pair small_nat (float_range (-1e6) 1e6))))
    (fun (sparse, dims_l, seeds) ->
      let dims = Array.of_list dims_l in
      let a =
        if sparse then Dist_array.create_sparse ~name:"rt" ~dims ~default:0.0
        else Dist_array.fill_dense ~name:"rt" ~dims 0.0
      in
      List.iter
        (fun (kseed, v) ->
          let key = Array.mapi (fun i d -> (kseed + (i * 7)) mod d) dims in
          Dist_array.set a key v)
        seeds;
      let part = Dist_array.to_partition a in
      let part' =
        Dist_array.partition_of_bytes (Dist_array.partition_to_bytes part)
      in
      (* bitwise equality of the wire image *)
      part'.Dist_array.pt_array = part.Dist_array.pt_array
      && part'.Dist_array.pt_dims = part.Dist_array.pt_dims
      && part'.Dist_array.pt_sparse = part.Dist_array.pt_sparse
      && bits part'.Dist_array.pt_default = bits part.Dist_array.pt_default
      && Array.length part'.Dist_array.pt_entries
         = Array.length part.Dist_array.pt_entries
      && Array.for_all2
           (fun (k, v) (k', v') -> k = k' && bits v = bits v')
           part.Dist_array.pt_entries part'.Dist_array.pt_entries
      &&
      (* and of the rebuilt array *)
      let b = Dist_array.of_partition part' in
      Dist_array.is_sparse b = sparse
      && Dist_array.fold
           (fun ok key v -> ok && bits (Dist_array.get b key) = bits v)
           true a)

let qcheck_partition_select =
  QCheck.Test.make ~count:100 ~name:"partition select filters entries"
    QCheck.(small_list (pair (int_range 0 11) (float_range (-10.0) 10.0)))
    (fun seeds ->
      let a = Dist_array.fill_dense ~name:"sel" ~dims:[| 12 |] 0.0 in
      List.iter (fun (k, v) -> Dist_array.set a [| k |] v) seeds;
      let part =
        Dist_array.to_partition ~select:(fun key _ -> key.(0) < 6) a
      in
      Array.for_all (fun (lin, _) -> lin < 6) part.Dist_array.pt_entries
      &&
      (* applying onto zeros reproduces exactly the selected half *)
      let b = Dist_array.fill_dense ~name:"sel" ~dims:[| 12 |] 0.0 in
      Dist_array.apply_partition b part;
      Dist_array.fold
        (fun ok key v ->
          ok
          && bits (Dist_array.get b key)
             = bits (if key.(0) < 6 then v else 0.0))
        true a)

(* ------------------------------------------------------------------ *)
(* Happens-before edge sets are acyclic for every model and shape      *)
(* ------------------------------------------------------------------ *)

let gen_model =
  QCheck.Gen.(
    oneof
      [
        return Domain_exec.M_1d;
        return Domain_exec.M_2d_ordered;
        map (fun d -> Domain_exec.M_2d_unordered { depth = d }) (int_range 1 3);
        return Domain_exec.M_time_major;
      ])

let arb_model =
  QCheck.make gen_model ~print:(fun m -> Domain_exec.model_to_string m)

let qcheck_block_edges_acyclic =
  QCheck.Test.make ~count:300 ~name:"block_edges acyclic (toposort completes)"
    QCheck.(triple arb_model (int_range 1 6) (int_range 1 8))
    (fun (model, sp, tp) ->
      let n = sp * tp in
      let edges = Domain_exec.block_edges model ~sp ~tp in
      List.for_all (fun (s, d) -> s >= 0 && s < n && d >= 0 && d < n) edges
      &&
      (* Kahn's algorithm must consume every block *)
      let succs = Array.make n [] and pending = Array.make n 0 in
      List.iter
        (fun (s, d) ->
          succs.(s) <- d :: succs.(s);
          pending.(d) <- pending.(d) + 1)
        edges;
      let ready = ref [] in
      for b = n - 1 downto 0 do
        if pending.(b) = 0 then ready := b :: !ready
      done;
      let visited = ref 0 in
      let rec drain () =
        match !ready with
        | [] -> ()
        | b :: rest ->
            ready := rest;
            incr visited;
            List.iter
              (fun d ->
                pending.(d) <- pending.(d) - 1;
                if pending.(d) = 0 then ready := d :: !ready)
              succs.(b);
            drain ()
      in
      drain ();
      !visited = n)

(* natural_order is one valid linearization of the edge set *)
let qcheck_natural_order_linearizes =
  QCheck.Test.make ~count:300 ~name:"natural_order respects block_edges"
    QCheck.(triple arb_model (int_range 1 6) (int_range 1 8))
    (fun (model, sp, tp) ->
      let pos = Hashtbl.create 16 in
      Array.iteri
        (fun i (s, t) -> Hashtbl.replace pos ((s * tp) + t) i)
        (Domain_exec.natural_order model ~sp ~tp);
      List.for_all
        (fun (src, dst) -> Hashtbl.find pos src < Hashtbl.find pos dst)
        (Domain_exec.block_edges model ~sp ~tp))

(* ------------------------------------------------------------------ *)
(* Frame + wire round-trip over a real socketpair                      *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Orion_net.Transport.wrap a and cb = Orion_net.Transport.wrap b in
  let msgs =
    [
      Orion_net.Wire.Hello
        { h_rank = 3; h_pid = 42; h_version = Orion_net.Wire.version };
      Orion_net.Wire.Peers [| "unix:/tmp/w0"; "tcp:127.0.0.1:9999" |];
      Orion_net.Wire.Peer_hello
        { ph_rank = 1; ph_version = Orion_net.Wire.version };
      Orion_net.Wire.Rotation_token
        {
          rt_pass = 1;
          rt_src = 5;
          rt_dst = 6;
          rt_entries = Bytes.of_string "\001\000abc";
        };
      Orion_net.Wire.Pass_sync
        { ps_pass = 0; ps_rank = 1; ps_entries = Bytes.of_string "xyz" };
      Orion_net.Wire.Shutdown;
    ]
  in
  List.iter (fun m -> Orion_net.Transport.send ca m) msgs;
  List.iter
    (fun sent ->
      match Orion_net.Transport.recv cb with
      | Some got ->
          Alcotest.(check string)
            "same message kind" (Orion_net.Wire.tag sent)
            (Orion_net.Wire.tag got);
          Alcotest.(check bool) "same payload" true (got = sent)
      | None -> Alcotest.fail "unexpected EOF")
    msgs;
  Unix.close a;
  (match Orion_net.Transport.recv cb with
  | None -> ()
  | Some _ -> Alcotest.fail "expected EOF after close");
  Unix.close b

let test_addr_roundtrip () =
  List.iter
    (fun addr ->
      Alcotest.(check string)
        "addr round-trips"
        (Orion_net.Transport.addr_to_string addr)
        (Orion_net.Transport.addr_to_string
           (Orion_net.Transport.addr_of_string
              (Orion_net.Transport.addr_to_string addr))))
    [ `Unix "/tmp/x.sock"; `Tcp ("127.0.0.1", 8080) ]

(* ------------------------------------------------------------------ *)
(* Wire encoding: codec round-trips                                    *)
(* ------------------------------------------------------------------ *)

module Policy = Orion_net.Policy

(* a fixed two-array model for the sender/receiver properties *)
let pol_dims = [ ("W", [| 4; 5 |]); ("h", [| 16 |]) ]

let pol_lin name (key : int array) =
  let dims = List.assoc name pol_dims in
  let lin = ref 0 in
  Array.iteri (fun i _ -> lin := (!lin * dims.(i)) + key.(i)) dims;
  !lin

let pol_delin name lin =
  let dims = List.assoc name pol_dims in
  let n = Array.length dims in
  let key = Array.make n 0 in
  let rem = ref lin in
  for i = n - 1 downto 0 do
    key.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  key

let pol_stats =
  (* one dense-ish and one sparse array, so the sender exercises both
     key modes (the records are plain data — no need to build arrays) *)
  [
    ( "W",
      {
        Dist_array.st_cells = 20;
        st_stored = 20;
        st_nnz = 16;
        st_density = 0.8;
        st_sparse = false;
      } );
    ( "h",
      {
        Dist_array.st_cells = 16;
        st_stored = 2;
        st_nnz = 2;
        st_density = 0.125;
        st_sparse = true;
      } );
  ]

(* random journal: writes chunked into blocks 0, 1, ... of pass 0 *)
let mk_entries seeds : Orion_net.Wire.block_writes list =
  let writes =
    List.map
      (fun (w, kseed, v) ->
        let name = if w then "W" else "h" in
        let key = pol_delin name (kseed mod 20) in
        { Orion_net.Wire.w_array = name; w_key = key; w_value = v })
      seeds
  in
  let rec chunk b = function
    | [] -> []
    | ws ->
        let n = min 3 (List.length ws) in
        let head = List.filteri (fun i _ -> i < n) ws
        and tail = List.filteri (fun i _ -> i >= n) ws in
        { Orion_net.Wire.bw_pass = 0; bw_block = b; bw_writes = Array.of_list head }
        :: chunk (b + 1) tail
  in
  chunk 0 writes

(* last-writer-wins state of a journal, keyed (array, key) *)
let lww_state (entries : Orion_net.Wire.block_writes list) =
  let st = Hashtbl.create 32 in
  List.iter
    (fun (bw : Orion_net.Wire.block_writes) ->
      Array.iter
        (fun (w : Orion_net.Wire.write) ->
          Hashtbl.replace st (w.w_array, Array.to_list w.w_key) (bits w.w_value))
        bw.bw_writes)
    entries;
  st

let same_state a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v ok -> ok && Hashtbl.find_opt b k = Some v) a true

(* every decoded write is some journaled write, bitwise, in its own
   (pass, block) group *)
let subset_of entries decoded =
  List.for_all
    (fun (bw : Orion_net.Wire.block_writes) ->
      Array.for_all
        (fun (w : Orion_net.Wire.write) ->
          List.exists
            (fun (bw' : Orion_net.Wire.block_writes) ->
              bw'.bw_pass = bw.bw_pass
              && bw'.bw_block = bw.bw_block
              && Array.exists
                   (fun (w' : Orion_net.Wire.write) ->
                     w'.w_array = w.w_array && w'.w_key = w.w_key
                     && bits w'.w_value = bits w.w_value)
                   bw'.bw_writes)
            entries)
        bw.bw_writes)
    decoded

let gen_seeds =
  QCheck.(
    small_list (triple bool small_nat (float_range (-1e3) 1e3)))

(* one sender, one pass: a mid-pass token payload (a prefix of the
   journal's blocks) and then the pass-sync flush (the rest) each
   decode to exactly the newest writes they carried, and applying the
   two in order reproduces the journal's last-writer-wins state *)
let qcheck_policy_sync_roundtrip =
  QCheck.Test.make ~count:200 ~name:"policy sync flush round-trips LWW state"
    QCheck.(pair gen_seeds small_nat)
    (fun (seeds, cut) ->
      let entries = mk_entries seeds in
      let cut = cut mod (List.length entries + 1) in
      let token = List.filteri (fun i _ -> i < cut) entries
      and flush = List.filteri (fun i _ -> i >= cut) entries in
      let sender = Policy.sender ~linearize:pol_lin ~pos:(fun b -> b) in
      Policy.note_pass sender pol_stats;
      let roundtrip journal =
        let payload, accounts = Policy.prepare sender journal in
        let decoded = Policy.decode_entries ~delinearize:pol_delin payload in
        ( subset_of journal decoded
          && same_state (lww_state journal) (lww_state decoded)
          && List.for_all (fun (_, b, f) -> b >= 0.0 && f >= 0.0) accounts,
          decoded )
      in
      let ok_token, dt = roundtrip token in
      let ok_flush, df = roundtrip flush in
      ok_token && ok_flush
      && same_state (lww_state entries) (lww_state (dt @ df)))

let qcheck_packed_partition_roundtrip =
  QCheck.Test.make ~count:200 ~name:"packed partition codec round-trip"
    QCheck.(
      triple bool
        (list_of_size (Gen.int_range 1 3) (int_range 1 5))
        (small_list (pair small_nat (float_range (-1e6) 1e6))))
    (fun (sparse, dims_l, seeds) ->
      let dims = Array.of_list dims_l in
      let a =
        if sparse then Dist_array.create_sparse ~name:"pk" ~dims ~default:0.0
        else Dist_array.fill_dense ~name:"pk" ~dims 0.0
      in
      List.iter
        (fun (kseed, v) ->
          let key = Array.mapi (fun i d -> (kseed + (i * 7)) mod d) dims in
          Dist_array.set a key v)
        seeds;
      let part = Dist_array.to_partition a in
      List.for_all
        (fun mode ->
          let part' = Policy.decode_part (Policy.encode_part ~mode part) in
          part'.Dist_array.pt_array = part.Dist_array.pt_array
          && part'.Dist_array.pt_dims = part.Dist_array.pt_dims
          && part'.Dist_array.pt_sparse = part.Dist_array.pt_sparse
          && bits part'.Dist_array.pt_default = bits part.Dist_array.pt_default
          && Array.length part'.Dist_array.pt_entries
             = Array.length part.Dist_array.pt_entries
          && Array.for_all2
               (fun (k, v) (k', v') -> k = k' && bits v = bits v')
               part.Dist_array.pt_entries part'.Dist_array.pt_entries)
        [ `Sparse; `Dense ])

(* ------------------------------------------------------------------ *)
(* End-to-end: distributed runs match the simulated executor           *)
(* ------------------------------------------------------------------ *)

let find_app name =
  match Orion.App.find name with
  | Some a -> a
  | None -> Alcotest.failf "app %s missing from registry" name

(* the reference instance must have the same cluster shape as the
   distributed one: schedule shape determines entry execution order,
   which order-sensitive apps (sgd mf, lda) are bitwise sensitive to *)
let run_sim (app : Orion.App.t) ~procs ~passes =
  let inst =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  ignore (Orion.Engine.run inst.Orion.App.inst_session inst ~mode:`Sim ~passes ());
  inst.Orion.App.inst_outputs

let run_dist ?(transport = `Unix) (app : Orion.App.t) ~procs ~passes =
  let inst =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  let report =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs; transport })
      ~passes ()
  in
  (inst.Orion.App.inst_outputs, report)

let check_outputs ~what ~tolerance a b =
  List.iter2
    (fun (name_a, arr_a) (_, arr_b) ->
      let d = Orion_dsm.Dist_array.diff_arrays name_a arr_a arr_b in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s equal (max abs %.3e, max rel %.3e)" what
           name_a d.Orion_dsm.Dist_array.d_max_abs d.Orion_dsm.Dist_array.d_max_rel)
        true
        (Orion_dsm.Dist_array.diff_ok ~tolerance d))
    a b

let distributed_matches_sim name procs () =
  let app = find_app name in
  let sim = run_sim app ~procs ~passes:2 in
  let dist, report = run_dist app ~procs ~passes:2 in
  check_outputs
    ~what:(Printf.sprintf "%s distributed(%d) vs sim" name procs)
    ~tolerance:app.Orion.App.app_tolerance sim dist;
  Alcotest.(check bool)
    "workers executed every entry twice" true
    (report.Orion.Engine.ep_entries > 0
    && report.Orion.Engine.ep_entries mod 2 = 0);
  Alcotest.(check bool)
    "some DistArray state travelled the wire" true
    (report.Orion.Engine.ep_bytes_shipped > 0.0
    && report.Orion.Engine.ep_bytes_by_array <> [])

(* the wire ships only the newest write per (array, key), packed
   ("delta"), yet the run ends exactly where applying every write
   ("full") ends — the simulated executor, bitwise or within slr's
   tolerance — and in fewer bytes than one Marshal record per write
   or partition (the full-equivalent count every sender keeps) *)
let delta_matches_full name () =
  let app = find_app name in
  let full = run_sim app ~procs:2 ~passes:2 in
  let delta, report = run_dist app ~procs:2 ~passes:2 in
  check_outputs
    ~what:(name ^ " delta vs full")
    ~tolerance:app.Orion.App.app_tolerance full delta;
  Alcotest.(check bool)
    (Printf.sprintf "packed bytes (%.0f) below per-record bytes (%.0f)"
       report.Orion.Engine.ep_bytes_shipped report.Orion.Engine.ep_bytes_full)
    true
    (report.Orion.Engine.ep_bytes_shipped < report.Orion.Engine.ep_bytes_full);
  Alcotest.(check bool)
    "report names a key mode per array" true
    (report.Orion.Engine.ep_policy_by_array <> []);
  (* mf's factor matrices are fully populated: run-length keys *)
  if name = "mf" then
    List.iter
      (fun arr ->
        Alcotest.(check (option string))
          (arr ^ " key mode") (Some "dense")
          (List.assoc_opt arr report.Orion.Engine.ep_policy_by_array))
      [ "W"; "H" ]

(* rank-order accumulator merge makes even buffered apps bitwise
   deterministic across distributed runs *)
let distributed_deterministic name () =
  let app = find_app name in
  let r1, _ = run_dist app ~procs:2 ~passes:2 in
  let r2, _ = run_dist app ~procs:2 ~passes:2 in
  check_outputs ~what:(name ^ " run1 vs run2") ~tolerance:None r1 r2

let tcp_smoke () =
  let app = find_app "mf" in
  let sim = run_sim app ~procs:2 ~passes:1 in
  let dist, _ = run_dist ~transport:`Tcp app ~procs:2 ~passes:1 in
  check_outputs ~what:"mf over tcp vs sim" ~tolerance:None sim dist

(* spawn through the real orion_worker executable (exec path) *)
let exec_spawn_smoke () =
  let exe =
    (* the test binary lives in _build/default/test; the worker is a
       declared dep one directory over *)
    let candidates =
      [
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/orion_worker.exe";
        Filename.concat (Sys.getcwd ()) "../bin/orion_worker.exe";
        Filename.concat (Sys.getcwd ())
          "_build/default/bin/orion_worker.exe";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None ->
        Alcotest.failf "orion_worker.exe not found near %s"
          Sys.executable_name
  in
  Unix.putenv Orion_net.Dist_master.spawn_env ("exec:" ^ exe);
  Fun.protect
    ~finally:(fun () -> Unix.putenv Orion_net.Dist_master.spawn_env "fork")
    (fun () ->
      let app = find_app "mf" in
      let sim = run_sim app ~procs:2 ~passes:1 in
      let dist, _ = run_dist app ~procs:2 ~passes:1 in
      check_outputs ~what:"mf via exec'd workers vs sim" ~tolerance:None sim
        dist)

(* ------------------------------------------------------------------ *)
(* Telemetry: worker spans shipped over the wire merge into one        *)
(* clock-aligned multi-process timeline                                *)
(* ------------------------------------------------------------------ *)

let distributed_telemetry_merged_timeline () =
  let app = find_app "mf" in
  let inst =
    app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:1 ()
  in
  let passes = 2 in
  let r =
    Orion.Engine.run inst.Orion.App.inst_session inst
      ~mode:(`Distributed { Orion.Engine.procs = 2; transport = `Unix })
      ~passes ~telemetry:true ()
  in
  match r.Orion.Engine.ep_telemetry with
  | None -> Alcotest.fail "distributed run produced no telemetry"
  | Some sm ->
      Alcotest.(check string) "mode" "distributed" sm.Orion.Telemetry.sm_mode;
      Alcotest.(check int) "one shard per worker" 2
        sm.Orion.Telemetry.sm_workers;
      let spans = Orion.Trace.spans sm.Orion.Telemetry.sm_trace in
      Alcotest.(check bool) "merged timeline is non-empty" true
        (Array.length spans > 0);
      (* each worker's spans are recorded sequentially, so after the
         master shifts them by the epoch offset they must still read as
         a monotone per-worker timeline on the master clock *)
      let last = Hashtbl.create 4 in
      let workers_seen = Hashtbl.create 4 in
      Array.iter
        (fun s ->
          Hashtbl.replace workers_seen s.Orion.Trace.worker ();
          Alcotest.(check bool) "span start is on the master timeline" true
            (s.Orion.Trace.start_sec >= 0.0);
          (match Hashtbl.find_opt last s.Orion.Trace.worker with
          | Some prev ->
              Alcotest.(check bool)
                (Printf.sprintf "worker %d timeline is monotone"
                   s.Orion.Trace.worker)
                true
                (s.Orion.Trace.start_sec >= prev)
          | None -> ());
          Hashtbl.replace last s.Orion.Trace.worker
            s.Orion.Trace.start_sec)
        spans;
      Alcotest.(check int) "both workers contributed spans" 2
        (Hashtbl.length workers_seen);
      Alcotest.(check int) "one metrics row per pass" passes
        (List.length sm.Orion.Telemetry.sm_pass_metrics);
      let overall = sm.Orion.Telemetry.sm_overall in
      Alcotest.(check bool) "nonzero compute time" true
        (overall.Orion.Metrics.compute_sec > 0.0);
      Alcotest.(check bool) "finite straggler ratio" true
        (Float.is_finite overall.Orion.Metrics.straggler_ratio);
      Alcotest.(check bool) "rotation traffic carries bytes" true
        (overall.Orion.Metrics.total_bytes > 0.0);
      Alcotest.(check bool) "per-block cost table is non-empty" true
        (sm.Orion.Telemetry.sm_block_costs <> [])

(* ------------------------------------------------------------------ *)
(* Failure path: a worker aborting mid-pass surfaces as a structured   *)
(* error within a bounded time, with no leftover workers               *)
(* ------------------------------------------------------------------ *)

let fault_injection () =
  Unix.putenv Orion_net.Dist_worker.abort_rank_env "1";
  Unix.putenv Orion_net.Dist_worker.timeout_env "30";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.timeout_env "60")
    (fun () ->
      let app = find_app "mf" in
      let t0 = Unix.gettimeofday () in
      (match run_dist app ~procs:2 ~passes:2 with
      | _ -> Alcotest.fail "aborting worker did not fail the run"
      | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
          Alcotest.(check (option int)) "failing rank identified" (Some 1)
            de_rank;
          Alcotest.(check bool)
            (Printf.sprintf "reason names the abort: %S" de_reason)
            true
            (de_reason <> ""));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "failed fast (%.1fs)" elapsed)
        true (elapsed < 25.0))

(* a deadline that is already past would misreport "timed out", and
   [nan] would disable it altogether: both, and any malformed value,
   are a structured error naming the variable, before any worker is
   spawned *)
let timeout_validation () =
  let env = Orion_net.Dist_worker.timeout_env in
  Fun.protect
    ~finally:(fun () -> Unix.putenv env "60")
    (fun () ->
      let names_var what f =
        match f () with
        | _ -> Alcotest.failf "%s: %s accepted" what env
        | exception Orion.Engine.Distributed_error { de_rank; de_reason } ->
            Alcotest.(check (option int)) (what ^ ": no rank") None de_rank;
            Alcotest.(check bool)
              (Printf.sprintf "%s: reason names %s: %S" what env de_reason)
              true
              (String.starts_with ~prefix:env de_reason)
      in
      List.iter
        (fun v ->
          Unix.putenv env v;
          names_var v (fun () ->
              Orion_net.Dist_worker.timeout_seconds ~default:1.0))
        [ "-1"; "0"; "nan"; "inf"; "soon" ];
      Unix.putenv env "nan";
      names_var "distributed run" (fun () ->
          run_dist (find_app "gbt") ~procs:2 ~passes:1);
      Unix.putenv env "2.5";
      Alcotest.(check (float 0.0)) "valid value parsed" 2.5
        (Orion_net.Dist_worker.timeout_seconds ~default:1.0);
      Unix.putenv env "";
      Alcotest.(check (float 0.0)) "empty means default" 1.0
        (Orion_net.Dist_worker.timeout_seconds ~default:1.0))

(* ------------------------------------------------------------------ *)
(* Kill-and-resume: a run checkpointed every pass and killed mid-pass  *)
(* by fault injection resumes from the newest checkpoint to the same   *)
(* final state as the uninterrupted run                                *)
(* ------------------------------------------------------------------ *)

module Checkpoint = Orion_store.Checkpoint

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dist_kill_and_resume name ~tolerance () =
  let app = find_app name in
  let procs = 2 and passes = 3 in
  let mode = `Distributed { Orion.Engine.procs; transport = `Unix } in
  let make () =
    app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  in
  (* truth: uninterrupted run; its report also tells us how many blocks
     one rank executes per pass (ep_time_parts), which positions the
     fault injection at the start of pass 2 *)
  let truth = make () in
  let report =
    Orion.Engine.run truth.Orion.App.inst_session truth ~mode ~passes ()
  in
  let blocks_per_pass = report.Orion.Engine.ep_time_parts in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "orion-dist-resume-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.abort_after_env "")
    (fun () ->
      (* killed run: rank 1 exits just before its first block of pass 2,
         after its pass-0 and pass-1 reports reached the master *)
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "1";
      Unix.putenv Orion_net.Dist_worker.abort_after_env
        (string_of_int (2 * blocks_per_pass));
      let inst1 = make () in
      let sink ~pass_done arrays =
        ignore
          (Checkpoint.save ~dir
             (Checkpoint.snapshot ~app:name ~scale:1.0 ~pass:pass_done
                ~total_passes:passes
                ~rng:
                  (Orion.Interp.Rng.state
                     inst1.Orion.App.inst_env.Orion.Interp.rng)
                arrays))
      in
      (match
         Orion.Engine.run inst1.Orion.App.inst_session inst1 ~mode ~passes
           ~checkpoint:(1, sink) ()
       with
      | _ -> Alcotest.fail "aborting worker did not fail the run"
      | exception Orion.Engine.Distributed_error _ -> ());
      Unix.putenv Orion_net.Dist_worker.abort_rank_env "";
      Unix.putenv Orion_net.Dist_worker.abort_after_env "";
      (* resume from whatever the master managed to checkpoint before
         the crash surfaced (at least pass 1) *)
      match Checkpoint.latest dir with
      | None -> Alcotest.fail "killed run left no checkpoint"
      | Some (_, s) ->
          Alcotest.(check bool)
            (Printf.sprintf "checkpoint is mid-run (pass %d)"
               s.Checkpoint.ck_pass)
            true
            (s.Checkpoint.ck_pass >= 1 && s.Checkpoint.ck_pass < passes);
          let inst2 = make () in
          Checkpoint.restore s inst2.Orion.App.inst_arrays;
          Orion.Interp.Rng.set_state
            inst2.Orion.App.inst_env.Orion.Interp.rng s.Checkpoint.ck_rng;
          ignore
            (Orion.Engine.run inst2.Orion.App.inst_session inst2 ~mode
               ~passes:(passes - s.Checkpoint.ck_pass) ());
          check_outputs
            ~what:(Printf.sprintf "%s killed-and-resumed vs uninterrupted"
                     name)
            ~tolerance truth.Orion.App.inst_outputs
            inst2.Orion.App.inst_outputs)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "distributed"
    [
      ( "serialization",
        [
          qc qcheck_partition_roundtrip;
          qc qcheck_partition_select;
          tc "wire round-trip over socketpair" `Quick test_wire_roundtrip;
          tc "address strings round-trip" `Quick test_addr_roundtrip;
        ] );
      ( "happens_before",
        [ qc qcheck_block_edges_acyclic; qc qcheck_natural_order_linearizes ]
      );
      ( "comms_policies",
        [
          qc qcheck_policy_sync_roundtrip;
          qc qcheck_packed_partition_roundtrip;
          tc "mf delta == full" `Slow (delta_matches_full "mf");
          tc "slr delta == full" `Slow (delta_matches_full "slr");
          tc "lda delta == full" `Slow (delta_matches_full "lda");
          tc "gbt delta == full" `Slow (delta_matches_full "gbt");
        ] );
      ( "equivalence",
        [
          tc "mf procs=2" `Slow (distributed_matches_sim "mf" 2);
          tc "mf procs=4" `Slow (distributed_matches_sim "mf" 4);
          tc "slr procs=2" `Slow (distributed_matches_sim "slr" 2);
          tc "slr procs=4" `Slow (distributed_matches_sim "slr" 4);
          tc "lda procs=2" `Slow (distributed_matches_sim "lda" 2);
          tc "lda procs=4" `Slow (distributed_matches_sim "lda" 4);
          tc "gbt procs=2" `Quick (distributed_matches_sim "gbt" 2);
          tc "gbt procs=4" `Slow (distributed_matches_sim "gbt" 4);
        ] );
      ( "determinism",
        [
          tc "mf" `Slow (distributed_deterministic "mf");
          tc "slr" `Slow (distributed_deterministic "slr");
        ] );
      ( "transports",
        [
          tc "mf over tcp" `Slow tcp_smoke;
          tc "mf via exec'd workers" `Slow exec_spawn_smoke;
        ] );
      ( "telemetry",
        [
          tc "2-proc merged timeline is clock-aligned" `Quick
            distributed_telemetry_merged_timeline;
        ] );
      ( "failure",
        [
          tc "worker abort mid-pass" `Quick fault_injection;
          tc "ORION_DIST_TIMEOUT is validated" `Quick timeout_validation;
        ] );
      ( "kill_and_resume",
        [
          tc "mf" `Quick (dist_kill_and_resume "mf" ~tolerance:None);
          tc "lda" `Quick (dist_kill_and_resume "lda" ~tolerance:None);
        ] );
    ]
