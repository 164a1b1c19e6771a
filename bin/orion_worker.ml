(* The distributed worker executable: one process per space partition,
   started by the master behind [Orion.Engine.run ~mode:(`Distributed _)]
   with only its rank and the master's address; the app instance is
   rebuilt from the registry (see [Orion_net.Dist_worker.main]). *)

let () =
  Orion_apps.Registry.ensure ();
  Orion_net.Dist_worker.main
    ~materialize:(Orion_apps.Registry.materialize ~records:false)
