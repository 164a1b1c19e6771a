(* Tests for the bench harness (lib/apps/bench.ml): every suite's
   envelope and rows, the 1-worker speedup baseline, the exit status a
   failed reference check produces, and ORION_BENCH_SCALE validation. *)

module Bench = Orion_apps.Bench

let tc = Alcotest.test_case
let () = Orion_apps.Registry.ensure ()

(* distributed workers: the orion_worker executable (a declared dep,
   one directory over), with bounded waits *)
let () =
  Unix.putenv Orion_net.Dist_master.worker_exe_env
    (Filename.dirname Sys.executable_name ^ "/../bin/orion_worker.exe");
  Unix.putenv Orion_net.Dist_worker.timeout_env "60"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* run one suite into a temp file; check the envelope kind and that
   every row matched its reference *)
let run_suite ~kind mode ~domains_list ~procs_list ~passes =
  let out = Filename.temp_file "orion_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let rows =
        Bench.run ~mode ~scale:1.0 ~out ~apps:[ "mf"; "slr" ] ~domains_list
          ~procs_list ~passes ~print:false ()
      in
      let json = read_file out in
      Alcotest.(check bool)
        (Printf.sprintf "envelope kind %s" kind)
        true
        (contains json (Printf.sprintf "\"kind\":\"%s\"" kind));
      Alcotest.(check bool) "rows written" true (contains json "\"rows\":[{");
      Alcotest.(check bool) "rows returned" true (rows <> []);
      List.iter
        (fun (r : Bench.row) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s x%d ok" r.Bench.row_app r.Bench.row_mode
               r.Bench.row_workers)
            true r.Bench.row_check.Bench.ck_ok)
        rows;
      Alcotest.(check int) "exit status" 0 (Bench.exit_code rows);
      rows)

(* speedup is wall(1 worker) / wall(n) within each app, whatever the
   order of the counts *)
let check_baseline rows =
  List.iter
    (fun app ->
      let app_rows =
        List.filter (fun (r : Bench.row) -> r.Bench.row_app = app) rows
      in
      let base =
        List.find (fun (r : Bench.row) -> r.Bench.row_workers = 1) app_rows
      in
      List.iter
        (fun (r : Bench.row) ->
          match r.Bench.row_speedup with
          | None -> Alcotest.failf "%s x%d: no speedup" app r.Bench.row_workers
          | Some s ->
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "%s x%d speedup vs 1 worker" app
                   r.Bench.row_workers)
                (base.Bench.row_wall_seconds
                /. Float.max r.Bench.row_wall_seconds 1e-12)
                s)
        app_rows)
    [ "mf"; "slr" ]

let test_speedup () =
  let rows =
    run_suite ~kind:"bench-speedup" `Speedup ~domains_list:[ 2; 1 ]
      ~procs_list:[] ~passes:2
  in
  Alcotest.(check int) "2 apps x 2 counts" 4 (List.length rows);
  check_baseline rows

let test_speedup_distributed () =
  let rows =
    run_suite ~kind:"bench-speedup-distributed" `Speedup_distributed
      ~domains_list:[] ~procs_list:[ 1; 2 ] ~passes:2
  in
  Alcotest.(check int) "2 apps x 2 counts" 4 (List.length rows);
  check_baseline rows;
  List.iter
    (fun (r : Bench.row) ->
      Alcotest.(check string) "mode" "distributed" r.Bench.row_mode;
      Alcotest.(check bool)
        "bytes shipped" true
        (r.Bench.row_bytes_shipped > 0.0))
    rows

let test_no_baseline () =
  let rows =
    run_suite ~kind:"bench-speedup" `Speedup ~domains_list:[ 2 ] ~procs_list:[]
      ~passes:1
  in
  List.iter
    (fun (r : Bench.row) ->
      Alcotest.(check (option (float 0.0)))
        "no 1-worker row: no speedup" None r.Bench.row_speedup)
    rows

let test_convergence () =
  let rows =
    run_suite ~kind:"bench-convergence" `Convergence ~domains_list:[ 1; 2 ]
      ~procs_list:[] ~passes:2
  in
  (* per app, a sim and a parallel curve of passes 0, 1, 2 *)
  Alcotest.(check int) "2 apps x 2 curves x 3 points" 12 (List.length rows);
  List.iter
    (fun (r : Bench.row) ->
      Alcotest.(check bool) "loss recorded" true (r.Bench.row_loss <> None);
      Alcotest.(check (option (float 0.0)))
        "no speedup" None r.Bench.row_speedup)
    rows;
  let mf_parallel =
    List.filter
      (fun (r : Bench.row) ->
        r.Bench.row_app = "mf" && r.Bench.row_mode = "parallel")
      rows
  in
  Alcotest.(check (list int)) "mf passes" [ 0; 1; 2 ]
    (List.map (fun (r : Bench.row) -> r.Bench.row_passes) mf_parallel);
  let walls =
    List.map (fun (r : Bench.row) -> r.Bench.row_wall_seconds) mf_parallel
  in
  Alcotest.(check bool) "cumulative wall time" true
    (List.sort compare walls = walls)

(* a row that diverged from its reference makes [orion bench] exit 1 *)
let test_mismatch_exit () =
  let out = Filename.temp_file "orion_bench" ".json" in
  let rows =
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        Bench.run ~mode:`Speedup ~scale:1.0 ~out ~apps:[ "gbt" ]
          ~domains_list:[ 1 ] ~passes:1 ~print:false ())
  in
  Alcotest.(check int) "matching rows exit 0" 0 (Bench.exit_code rows);
  let diverged =
    List.map
      (fun (r : Bench.row) ->
        {
          r with
          Bench.row_check =
            { Bench.ck_max_abs = 1.0; ck_max_rel = 1.0; ck_ok = false };
        })
      rows
  in
  Alcotest.(check int) "a diverged row exits 1" 1
    (Bench.exit_code (rows @ diverged))

(* malformed, non-finite and non-positive values are errors naming the
   variable; empty means the default *)
let test_scale_env () =
  let env = Bench.scale_env in
  let saved = Sys.getenv_opt env in
  Fun.protect
    ~finally:(fun () -> Unix.putenv env (Option.value saved ~default:""))
    (fun () ->
      List.iter
        (fun v ->
          Unix.putenv env v;
          match Bench.env_scale () with
          | s -> Alcotest.failf "%s=%S accepted as %g" env v s
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%S: message names %s: %S" v env msg)
                true
                (String.starts_with ~prefix:env msg))
        [ "-1"; "0"; "nan"; "inf"; "big" ];
      Unix.putenv env "2.5";
      Alcotest.(check (float 0.0))
        "valid value parsed" 2.5 (Bench.env_scale ());
      Unix.putenv env "";
      Alcotest.(check (float 0.0)) "empty means default" 1.0
        (Bench.env_scale ()))

let () =
  Alcotest.run "bench"
    [
      ( "suites",
        [
          tc "speedup" `Quick test_speedup;
          tc "speedup-distributed" `Quick test_speedup_distributed;
          tc "speedup without a 1-worker row" `Quick test_no_baseline;
          tc "convergence" `Quick test_convergence;
        ] );
      ( "exit",
        [ tc "a diverged row exits 1" `Quick test_mismatch_exit ] );
      ( "env", [ tc "ORION_BENCH_SCALE is validated" `Quick test_scale_env ] );
    ]
