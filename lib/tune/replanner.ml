(* The decision side of adaptive re-planning: measured per-partition
   rates -> weighted space cut -> improvement gate -> race-checker gate
   -> adopt.  The engine applies adopted decisions mechanically
   (Engine.apply_replan / the distributed Repartition directive); every
   gate lives here so an invalid or non-improving candidate can never
   reach an executor. *)

module Plan = Orion.Plan
module Schedule = Orion.Schedule
module Partitioner = Orion.Partitioner
module Race = Orion_verify.Race

type decision = {
  d_pass : int;
  d_adopted : bool;
  d_reason : string;
  d_boundaries : int array option;
  d_observed_max : float;
  d_predicted_max : float;
  d_race_checked : bool;
  d_race_violations : int;
  d_replan : Orion.Engine.replan option;
}

let decision_to_string d =
  Printf.sprintf "pass %d: %s — %s%s" d.d_pass
    (if d.d_adopted then "re-plan adopted" else "kept")
    d.d_reason
    (if d.d_race_checked then
       Printf.sprintf " (race check: %d violation(s))" d.d_race_violations
     else "")

let decision_json d : Orion.Report.json =
  let open Orion.Report in
  Obj
    [
      ("pass", Int d.d_pass);
      ("adopted", Bool d.d_adopted);
      ("reason", Str d.d_reason);
      ( "boundaries",
        match d.d_boundaries with
        | None -> Null
        | Some b -> List (Array.to_list (Array.map (fun v -> Int v) b)) );
      ("observed_max_seconds", Float d.d_observed_max);
      ("predicted_max_seconds", Float d.d_predicted_max);
      ("race_checked", Bool d.d_race_checked);
      ("race_violations", Int d.d_race_violations);
    ]

type t = {
  fn : Orion.Engine.replanner;
  log : unit -> decision list;
  prepare : unit -> unit;
}

let adopted t =
  List.filter_map
    (fun d ->
      match (d.d_adopted, d.d_replan) with
      | true, Some rp -> Some (d.d_pass, rp)
      | _ -> None)
    (t.log ())

let keep ~pass ~reason ?(observed = 0.0) ?(predicted = 0.0) ?boundaries
    ?(race_checked = false) ?(violations = 0) () =
  {
    d_pass = pass;
    d_adopted = false;
    d_reason = reason;
    d_boundaries = boundaries;
    d_observed_max = observed;
    d_predicted_max = predicted;
    d_race_checked = race_checked;
    d_race_violations = violations;
    d_replan = None;
  }

let make ?(margin = 0.1) ~(app : Orion.App.t) ~(inst : Orion.App.instance)
    ~scale ~num_machines ~workers_per_machine () =
  let plan = Orion.analyze_loop inst.Orion.App.inst_session inst.inst_loop in
  let compiled =
    Orion.compile inst.inst_session ~plan ~iter:inst.inst_iter ()
  in
  let sched0 = compiled.Orion.schedule in
  let sp = sched0.Schedule.space_parts
  and tp = sched0.Schedule.time_parts in
  let space_dim =
    match plan.Plan.strategy with
    | Plan.One_d { space_dim } -> Some space_dim
    | Plan.Two_d { space_dim; _ } -> Some space_dim
    | Plan.Data_parallel -> Some 0
    | Plan.Two_d_unimodular _ -> None
  in
  let counts =
    match space_dim with
    | Some d -> Partitioner.histogram inst.inst_iter ~dim:d
    | None -> [||]
  in
  (* serial observation runs once, on a fresh twin instance (it mutates
     the arrays it observes); the edges are keyed by iteration keys, so
     one observation validates every candidate cut of the same data *)
  let edges =
    lazy
      (let fresh =
         app.Orion.App.app_make ~scale ~num_machines ~workers_per_machine ()
       in
       let log = Orion_verify.Verify.observe fresh in
       Orion_verify.Depobserve.edges ~ordered:plan.Plan.ordered
         ~skip_arrays:fresh.Orion.App.inst_buffered log)
  in
  let cur = ref sched0.Schedule.space_boundaries in
  (* calibrated per-index seconds-per-entry estimates.  Each pass only
     measures partition totals, so each pass multiplicatively rescales
     the indices of each partition until the estimates reproduce the
     measurement (iterative proportional fitting); successive cuts
     measure different segments, so resolution accumulates and the
     weighted cut converges even when skew varies inside a partition *)
  let rates = Array.make (Array.length counts) 1.0 in
  let calibrate (table : Cost_table.t) =
    let b = !cur in
    for p = 0 to sp - 1 do
      let predicted = ref 0.0 in
      for i = b.(p) to b.(p + 1) - 1 do
        predicted := !predicted +. (float_of_int counts.(i) *. rates.(i))
      done;
      let observed = table.Cost_table.ct_parts.(p).Cost_table.pc_seconds in
      if !predicted > 0.0 && observed > 0.0 then begin
        let s = observed /. !predicted in
        for i = b.(p) to b.(p + 1) - 1 do
          rates.(i) <- rates.(i) *. s
        done
      end
    done
  in
  let decisions : decision list ref = ref [] in
  let note d = decisions := d :: !decisions in
  (* every adoption raises the bar for the next one: each migration has
     a real cost, so marginal (noise-level) re-balances must not keep
     firing once the cut is close to converged *)
  let n_adopted = ref 0 in
  let eff_margin () = margin *. (1.0 +. float_of_int !n_adopted) in
  let part_weight weights b p =
    let acc = ref 0.0 in
    for i = b.(p) to b.(p + 1) - 1 do
      acc := !acc +. weights.(i)
    done;
    !acc
  in
  let candidate_schedule space_boundaries =
    Schedule.rebalance plan.Plan.strategy inst.inst_iter ~space_boundaries
      ~time_parts:tp
  in
  let fn ~pass ~costs =
    match space_dim with
    | None ->
        note (keep ~pass ~reason:"strategy exposes no re-balanceable space cut" ());
        None
    | Some _ -> (
        match Cost_table.of_costs ~sp ~pass costs with
        | None ->
            note (keep ~pass ~reason:"no block-cost measurements" ());
            None
        | Some table -> (
            calibrate table;
            let margin = eff_margin () in
            if table.Cost_table.ct_straggler < 1.0 +. (2.0 *. margin) then begin
              (* measured imbalance below the noise threshold: chasing
                 it is how adaptive schedulers thrash (the measurement
                 was still folded into the calibrated rates above) *)
              note
                (keep ~pass
                   ~reason:
                     (Printf.sprintf
                        "measured straggler %.2f below re-balance threshold \
                         %.2f"
                        table.Cost_table.ct_straggler
                        (1.0 +. (2.0 *. margin)))
                   ~observed:table.Cost_table.ct_max_seconds ());
              None
            end
            else
            let boundaries = !cur in
            let weights =
              Array.mapi (fun i c -> float_of_int c *. rates.(i)) counts
            in
            let nb = Partitioner.weighted_ranges ~weights ~parts:sp in
            if nb = boundaries then begin
              note
                (keep ~pass ~reason:"measured cut equals the current cut"
                   ~observed:table.Cost_table.ct_max_seconds ());
              None
            end
            else
              let predicted =
                let m = ref 0.0 in
                for p = 0 to sp - 1 do
                  m := Float.max !m (part_weight weights nb p)
                done;
                !m
              in
              let observed = table.Cost_table.ct_max_seconds in
              if predicted >= observed *. (1.0 -. margin) then begin
                note
                  (keep ~pass
                     ~reason:
                       (Printf.sprintf
                          "non-improving: predicted max %.4fs vs observed \
                           %.4fs (margin %.0f%%)"
                          predicted observed (100.0 *. margin))
                     ~observed ~predicted ~boundaries:nb ());
                None
              end
              else
                match candidate_schedule nb with
                | None ->
                    note (keep ~pass ~reason:"schedule rebuild unsupported" ());
                    None
                | Some sched -> (
                    let model =
                      Race.model_of_plan plan
                        ~pipeline_depth:compiled.Orion.pipeline_depth ~sp ~tp
                    in
                    let race = Race.build model ~workers:sp sched in
                    let violations =
                      Race.check race ~ordered:plan.Plan.ordered
                        (Lazy.force edges)
                    in
                    match violations with
                    | _ :: _ ->
                        note
                          (keep ~pass
                             ~reason:"candidate schedule rejected by the race checker"
                             ~observed ~predicted ~boundaries:nb
                             ~race_checked:true
                             ~violations:(List.length violations) ());
                        None
                    | [] ->
                        let reason =
                          Printf.sprintf
                            "weighted re-balance: observed max %.4fs -> \
                             predicted %.4fs (straggler %.2f)"
                            observed predicted table.Cost_table.ct_straggler
                        in
                        let rp =
                          {
                            Orion.Engine.rp_space_boundaries = Some nb;
                            rp_pipeline_depth = None;
                            rp_strategy = None;
                            rp_reason = reason;
                          }
                        in
                        cur := nb;
                        incr n_adopted;
                        note
                          {
                            d_pass = pass;
                            d_adopted = true;
                            d_reason = reason;
                            d_boundaries = Some nb;
                            d_observed_max = observed;
                            d_predicted_max = predicted;
                            d_race_checked = true;
                            d_race_violations = 0;
                            d_replan = Some rp;
                          };
                        Some rp)))
  in
  {
    fn;
    log = (fun () -> List.rev !decisions);
    prepare = (fun () -> ignore (Lazy.force edges));
  }

let scripted script =
  let decisions : decision list ref = ref [] in
  let fn ~pass ~costs =
    ignore costs;
    match List.assoc_opt pass script with
    | None -> None
    | Some rp ->
        decisions :=
          {
            d_pass = pass;
            d_adopted = true;
            d_reason = "scripted replay: " ^ rp.Orion.Engine.rp_reason;
            d_boundaries = rp.Orion.Engine.rp_space_boundaries;
            d_observed_max = 0.0;
            d_predicted_max = 0.0;
            d_race_checked = false;
            d_race_violations = 0;
            d_replan = Some rp;
          }
          :: !decisions;
        Some rp
  in
  { fn; log = (fun () -> List.rev !decisions); prepare = (fun () -> ()) }
