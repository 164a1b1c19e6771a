(* Loss-vs-wall-time measurement: drive Engine.run one pass at a time,
   sampling the app's objective at every boundary on the monotonic
   clock. *)

module Clock = Orion_obs.Clock
module Metrics = Orion_obs.Metrics
module Telemetry = Orion_obs.Telemetry
module R = Orion_report

type point = {
  pt_pass : int;
  pt_wall : float;
  pt_loss : float;
  pt_straggler : float option;
  pt_barrier : float option;
}

type result = {
  cv_app : string;
  cv_mode : string;
  cv_domains : int;
  cv_passes : int;
  cv_scale : float;
  cv_bytes_shipped : float;
  cv_bytes_full : float;
  cv_points : point list;
}

let run (app : Orion.App.t) ~(mode : Orion.Engine.mode) ~passes
    ?(scale = 1.0) ?(num_machines = 2) ?(workers_per_machine = 2)
    ?pipeline_depth () : result =
  let loss_of =
    match app.Orion.App.app_loss with
    | Some f -> f
    | None ->
        invalid_arg
          (Printf.sprintf "app %s declares no training loss"
             app.Orion.App.app_name)
  in
  let inst =
    match mode with
    | `Distributed { Orion.Engine.procs; _ } ->
        (* one worker process per simulated machine *)
        app.Orion.App.app_make ~scale ~num_machines:procs
          ~workers_per_machine:1 ()
    | `Sim | `Parallel _ ->
        app.Orion.App.app_make ~scale ~num_machines ~workers_per_machine ()
  in
  let t0 = Clock.now () in
  let points = ref [] in
  let record ~pass ~report =
    let straggler, barrier =
      match report with
      | Some r -> (
          match r.Orion.Engine.ep_telemetry with
          | Some sm ->
              let m = sm.Telemetry.sm_overall in
              ( Some m.Metrics.straggler_ratio,
                Some m.Metrics.barrier_wait_fraction )
          | None -> (None, None))
      | None -> (None, None)
    in
    points :=
      {
        pt_pass = pass;
        (* measured after the loss evaluation so the curve's x axis is
           honest about when the y value existed *)
        pt_loss = loss_of inst;
        pt_wall = Clock.elapsed t0;
        pt_straggler = straggler;
        pt_barrier = barrier;
      }
      :: !points
  in
  record ~pass:0 ~report:None;
  let bytes_shipped = ref 0.0 and bytes_full = ref 0.0 in
  for pass = 1 to passes do
    let r =
      Orion.Engine.run inst.Orion.App.inst_session inst ~mode ~passes:1
        ?pipeline_depth ~scale ~telemetry:true ()
    in
    bytes_shipped := !bytes_shipped +. r.Orion.Engine.ep_bytes_shipped;
    bytes_full := !bytes_full +. r.Orion.Engine.ep_bytes_full;
    (* fold buffered accumulators into the model (e.g. SLR's gradient
       buffer) before measuring, so the objective can actually move *)
    Option.iter (fun f -> f inst) app.Orion.App.app_prepare_pass;
    record ~pass ~report:(Some r)
  done;
  let domains =
    match mode with
    | `Sim -> 1
    | `Parallel d -> d
    | `Distributed { Orion.Engine.procs; _ } -> procs
  in
  {
    cv_app = app.Orion.App.app_name;
    cv_mode = Orion.Engine.mode_to_string mode;
    cv_domains = domains;
    cv_passes = passes;
    cv_scale = scale;
    cv_bytes_shipped = !bytes_shipped;
    cv_bytes_full = !bytes_full;
    cv_points = List.rev !points;
  }

let opt_float = function Some f -> R.Float f | None -> R.Null

let result_payload r =
  R.Obj
    [
      ("app", R.Str r.cv_app);
      ("mode", R.Str r.cv_mode);
      ("domains", R.Int r.cv_domains);
      ("passes", R.Int r.cv_passes);
      ("scale", R.Float r.cv_scale);
      ("bytes_shipped", R.Float r.cv_bytes_shipped);
      ("bytes_full", R.Float r.cv_bytes_full);
      ( "points",
        R.List
          (List.map
             (fun p ->
               R.Obj
                 [
                   ("pass", R.Int p.pt_pass);
                   ("wall_seconds", R.Float p.pt_wall);
                   ("loss", R.Float p.pt_loss);
                   ("straggler_ratio", opt_float p.pt_straggler);
                   ("barrier_wait_fraction", opt_float p.pt_barrier);
                 ])
             r.cv_points) );
    ]

let payload results =
  R.Obj [ ("results", R.List (List.map result_payload results)) ]

let emit results = R.emit ~kind:"bench-convergence" (payload results)
