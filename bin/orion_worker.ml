(* The distributed worker executable: one process per space partition,
   spawned by the master behind [Orion.Engine.run ~mode:(`Distributed _)].
   It receives only its rank and the master's address; everything else
   (app, scale, cluster shape, then its row of the schedule) arrives
   over the protocol, and the app instance is rebuilt from the
   registry. *)

let usage = "orion_worker --rank N --master ADDR"

let () =
  Orion_apps.Registry.ensure ();
  let rank = ref (-1) and master = ref "" in
  let rec parse = function
    | [] -> ()
    | "--rank" :: v :: rest ->
        (match int_of_string_opt v with
        | Some r -> rank := r
        | None ->
            prerr_endline ("orion_worker: bad rank: " ^ v);
            exit 2);
        parse rest
    | "--master" :: v :: rest ->
        master := v;
        parse rest
    | arg :: _ ->
        prerr_endline ("orion_worker: unknown argument: " ^ arg);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !rank < 0 || !master = "" then begin
    prerr_endline usage;
    exit 2
  end;
  match
    Orion_net.Dist_worker.connect_and_serve
      ~materialize:(Orion_apps.Registry.materialize ~records:false)
      ~rank:!rank
      ~master_addr:!master
  with
  | () -> exit 0
  | exception e ->
      Printf.eprintf "orion_worker (rank %d): %s\n%!" !rank
        (Printexc.to_string e);
      exit 2
