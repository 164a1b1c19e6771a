(* One front door for the three benchmark suites.  Each suite keeps
   its own result types and payload shape (CI asserts on them), but
   every envelope written here also carries a uniform "rows" list with
   the same columns — app, mode, workers, wall seconds, bytes
   shipped/full — so downstream tooling can read any
   BENCH_*.json without knowing which suite produced it. *)

module Report = Orion.Report
module App = Orion.App

type mode = [ `Speedup | `Speedup_distributed | `Convergence ]

let mode_to_string = function
  | `Speedup -> "speedup"
  | `Speedup_distributed -> "speedup-distributed"
  | `Convergence -> "convergence"

let mode_of_string = function
  | "speedup" -> Some `Speedup
  | "speedup-distributed" -> Some `Speedup_distributed
  | "convergence" -> Some `Convergence
  | _ -> None

let kind_of_mode = function
  | `Speedup -> "bench-speedup"
  | `Speedup_distributed -> "bench-speedup-distributed"
  | `Convergence -> "bench-convergence"

let default_out = function
  | `Speedup -> "BENCH_parallel.json"
  | `Speedup_distributed -> "BENCH_distributed.json"
  | `Convergence -> "BENCH_convergence.json"

type row = {
  row_app : string;
  row_mode : string;  (** engine mode: ["sim"], ["parallel"], ["distributed"] *)
  row_workers : int;  (** domains or worker processes *)
  row_wall_seconds : float;
  row_speedup : float option;
  row_loss : float option;  (** final training loss, when measured *)
  row_bytes_shipped : float;
  row_bytes_full : float;
  row_bytes_saved_fraction : float;
  row_policy_by_array : (string * string) list;
  row_ok : bool option;
      (** matched the suite's reference run, where one exists *)
}

let opt_float = function Some v -> Report.Float v | None -> Report.Null

let row_json (r : row) : Report.json =
  Report.Obj
    [
      ("app", Report.Str r.row_app);
      ("mode", Report.Str r.row_mode);
      ("workers", Report.Int r.row_workers);
      ("wall_seconds", Report.Float r.row_wall_seconds);
      ("speedup", opt_float r.row_speedup);
      ("loss", opt_float r.row_loss);
      ("bytes_shipped", Report.Float r.row_bytes_shipped);
      ("bytes_full", Report.Float r.row_bytes_full);
      ("bytes_saved_fraction", Report.Float r.row_bytes_saved_fraction);
      ( "policy_by_array",
        Report.Obj
          (List.map (fun (n, p) -> (n, Report.Str p)) r.row_policy_by_array)
      );
      ( "ok",
        match r.row_ok with Some b -> Report.Bool b | None -> Report.Null );
    ]

let speedup_rows (results : Speedup.app_result list) : row list =
  List.concat_map
    (fun (a : Speedup.app_result) ->
      List.map
        (fun (r : Speedup.run) ->
          {
            row_app = a.Speedup.res_app;
            row_mode = "parallel";
            row_workers = r.Speedup.run_domains;
            row_wall_seconds = r.Speedup.run_wall_seconds;
            row_speedup = Some r.Speedup.run_speedup;
            row_loss = None;
            row_bytes_shipped = r.Speedup.run_bytes_shipped;
            row_bytes_full = r.Speedup.run_bytes_full;
            row_bytes_saved_fraction = 0.0;
            row_policy_by_array = [];
            row_ok = Some r.Speedup.run_equal_vs_sim;
          })
        a.Speedup.res_runs)
    results

let dist_rows (results : Dist_bench.app_result list) : row list =
  List.concat_map
    (fun (a : Dist_bench.app_result) ->
      List.map
        (fun (r : Dist_bench.run) ->
          {
            row_app = a.Dist_bench.res_app;
            row_mode = "distributed";
            row_workers = r.Dist_bench.run_procs;
            row_wall_seconds = r.Dist_bench.run_wall_seconds;
            row_speedup = Some r.Dist_bench.run_speedup;
            row_loss = r.Dist_bench.run_loss;
            row_bytes_shipped = r.Dist_bench.run_bytes_shipped;
            row_bytes_full = r.Dist_bench.run_bytes_full;
            row_bytes_saved_fraction = r.Dist_bench.run_bytes_saved_fraction;
            row_policy_by_array = r.Dist_bench.run_policy_by_array;
            row_ok = Some r.Dist_bench.run_equal_vs_sim;
          })
        a.Dist_bench.res_runs)
    results

let convergence_rows (results : Convergence.result list) : row list =
  List.map
    (fun (r : Convergence.result) ->
      let final =
        match List.rev r.Convergence.cv_points with
        | p :: _ -> Some p
        | [] -> None
      in
      {
        row_app = r.Convergence.cv_app;
        row_mode = r.Convergence.cv_mode;
        row_workers = r.Convergence.cv_domains;
        row_wall_seconds =
          (match final with
          | Some p -> p.Convergence.pt_wall
          | None -> 0.0);
        row_speedup = None;
        row_loss = Option.map (fun p -> p.Convergence.pt_loss) final;
        row_bytes_shipped = r.Convergence.cv_bytes_shipped;
        row_bytes_full = r.Convergence.cv_bytes_full;
        row_bytes_saved_fraction =
          (if r.Convergence.cv_bytes_full > 0.0 then
             1.0
             -. (r.Convergence.cv_bytes_shipped /. r.Convergence.cv_bytes_full)
           else 0.0);
        row_policy_by_array = [];
        row_ok = None;
      })
    results

(* append the uniform rows to a suite's payload object *)
let with_rows (payload : Report.json) (rows : row list) : Report.json =
  let rows_field = ("rows", Report.List (List.map row_json rows)) in
  match payload with
  | Report.Obj fields -> Report.Obj (fields @ [ rows_field ])
  | other -> Report.Obj [ ("payload", other); rows_field ]

let write_file out contents =
  let oc = open_out out in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let run_convergence ?apps ~domains_list ~passes ~scale ~num_machines
    ~workers_per_machine ~print () : Convergence.result list =
  Registry.ensure ();
  let names = match apps with Some l -> l | None -> App.names () in
  let selected =
    List.filter_map
      (fun n ->
        match App.find n with
        | Some a when Option.is_some a.App.app_loss -> Some a
        | Some a ->
            Printf.eprintf
              "bench convergence: app %s declares no loss (skipped)\n"
              a.App.app_name;
            None
        | None ->
            Printf.eprintf "bench convergence: unknown app %S (skipped)\n" n;
            None)
      names
  in
  List.concat_map
    (fun a ->
      List.map
        (fun d ->
          (* domain count 1 measures the simulated cluster *)
          let mode = if d <= 1 then `Sim else `Parallel d in
          let r =
            Convergence.run a ~mode ~passes ~scale ~num_machines
              ~workers_per_machine ()
          in
          if print then
            List.iter
              (fun (p : Convergence.point) ->
                Printf.printf "%-4s %-10s pass %2d | loss %14.6f | %8.4f s\n"
                  r.Convergence.cv_app r.Convergence.cv_mode
                  p.Convergence.pt_pass p.Convergence.pt_loss
                  p.Convergence.pt_wall)
              r.Convergence.cv_points;
          r)
        domains_list)
    selected

let run ~(mode : mode) ~scale ~out ?apps ?(domains_list = [ 1; 2; 4; 8 ])
    ?(procs_list = [ 1; 2; 4 ]) ?(passes = 3)
    ?(transport = `Unix) ?(num_machines = 2) ?(workers_per_machine = 2)
    ?(print = true) () : row list =
  let payload, rows =
    match mode with
    | `Speedup ->
        let results, payload =
          Speedup.run ?apps ~domains_list ~passes ~scale ~num_machines
            ~workers_per_machine ()
        in
        if print then Speedup.print_results results;
        (payload, speedup_rows results)
    | `Speedup_distributed ->
        let results, payload =
          Dist_bench.run ?apps ~procs_list ~passes ~scale ~transport ()
        in
        if print then Dist_bench.print_results results;
        (payload, dist_rows results)
    | `Convergence ->
        let results =
          run_convergence ?apps ~domains_list ~passes ~scale ~num_machines
            ~workers_per_machine ~print ()
        in
        (Convergence.payload results, convergence_rows results)
  in
  write_file out
    (Report.emit ~kind:(kind_of_mode mode) (with_rows payload rows));
  if print then Printf.printf "wrote %s\n" out;
  rows
