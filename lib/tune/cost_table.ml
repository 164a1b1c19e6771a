(* Calibrated per-partition costs from one pass's measured block
   costs.  The planner's static model charges every entry the same
   weight; the table records what each space partition actually cost,
   which is what the measured decision tree reads. *)

module Telemetry = Orion.Telemetry

type partition_cost = {
  pc_space : int;
  pc_seconds : float;
  pc_entries : int;
  pc_sec_per_entry : float;
}

type t = {
  ct_pass : int;
  ct_parts : partition_cost array;
  ct_total_seconds : float;
  ct_max_seconds : float;
  ct_mean_seconds : float;
  ct_straggler : float;
  ct_sec_per_entry : float;
}

let of_costs ~sp ~pass (costs : Telemetry.block_cost list) =
  let seconds = Array.make sp 0.0 and entries = Array.make sp 0 in
  let seen = ref false in
  List.iter
    (fun (c : Telemetry.block_cost) ->
      if c.Telemetry.bc_pass = pass && c.Telemetry.bc_space >= 0
         && c.Telemetry.bc_space < sp
      then begin
        seen := true;
        seconds.(c.Telemetry.bc_space) <-
          seconds.(c.Telemetry.bc_space) +. c.Telemetry.bc_seconds;
        entries.(c.Telemetry.bc_space) <-
          entries.(c.Telemetry.bc_space) + c.Telemetry.bc_entries
      end)
    costs;
  if not !seen then None
  else begin
    let total = Array.fold_left ( +. ) 0.0 seconds in
    let total_entries = Array.fold_left ( + ) 0 entries in
    let global_rate =
      if total_entries > 0 then total /. float_of_int total_entries else 0.0
    in
    let parts =
      Array.init sp (fun p ->
          {
            pc_space = p;
            pc_seconds = seconds.(p);
            pc_entries = entries.(p);
            pc_sec_per_entry =
              (if entries.(p) > 0 then
                 seconds.(p) /. float_of_int entries.(p)
               else global_rate);
          })
    in
    let max_s = Array.fold_left (fun m p -> Float.max m p.pc_seconds) 0.0 parts in
    let mean = total /. float_of_int (max 1 sp) in
    Some
      {
        ct_pass = pass;
        ct_parts = parts;
        ct_total_seconds = total;
        ct_max_seconds = max_s;
        ct_mean_seconds = mean;
        ct_straggler = (if mean > 0.0 then max_s /. mean else 1.0);
        ct_sec_per_entry = global_rate;
      }
  end

let pp fmt t =
  Fmt.pf fmt
    "pass %d: %.4f s measured compute, max partition %.4f s, straggler \
     %.2f, %.3g s/entry@."
    t.ct_pass t.ct_total_seconds t.ct_max_seconds t.ct_straggler
    t.ct_sec_per_entry;
  Array.iter
    (fun p ->
      Fmt.pf fmt "  sp%-2d %.4f s  (%d entries, %.3g s/entry)@." p.pc_space
        p.pc_seconds p.pc_entries p.pc_sec_per_entry)
    t.ct_parts

let to_string t = Fmt.str "%a" pp t

let to_json t : Orion.Report.json =
  let open Orion.Report in
  Obj
    [
      ("pass", Int t.ct_pass);
      ("total_seconds", Float t.ct_total_seconds);
      ("max_seconds", Float t.ct_max_seconds);
      ("straggler", Float t.ct_straggler);
      ("sec_per_entry", Float t.ct_sec_per_entry);
      ( "partitions",
        List
          (Array.to_list
             (Array.map
                (fun p ->
                  Obj
                    [
                      ("space", Int p.pc_space);
                      ("seconds", Float p.pc_seconds);
                      ("entries", Int p.pc_entries);
                      ("sec_per_entry", Float p.pc_sec_per_entry);
                    ])
                t.ct_parts)) );
    ]
