(* Cross-library integration tests: fault tolerance (checkpoint /
   restore mid-training resumes exactly), driver-controlled
   termination (a while-loop around a parallel loop), and mixed
   parallel strategies in one program. *)

open Orion

let mk_ratings () =
  Orion_data.Ratings.generate ~num_users:24 ~num_items:20 ~num_ratings:240
    ~rank_truth:3 ()

let train_script n =
  Printf.sprintf
    {|
step_size = 0.05
for iter = 1:%d
  @parallel_for for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    diff = rv - dot(W_row, H_row)
    W[:, key[1]] = W_row + 2.0 * step_size * diff * H_row
    H[:, key[2]] = H_row + 2.0 * step_size * diff * W_row
  end
end
|}
    n

let eval_script =
  {|
err = 0.0
@parallel_for for (key, rv) in ratings
  err += abs2(rv - dot(W[:, key[1]], H[:, key[2]]))
end
final_err = get_aggregated_value("err")
|}

let rank = 4

let fresh_session data =
  let session = create_session ~num_machines:2 ~workers_per_machine:2 () in
  register session data.Orion_data.Ratings.ratings;
  session

let fresh_params () =
  ( Dist_array.fill_dense ~name:"W" ~dims:[| rank; 24 |] 0.1,
    Dist_array.fill_dense ~name:"H" ~dims:[| rank; 20 |] 0.1 )

let loss_of session =
  let env, _ = run_script session eval_script in
  Value.to_float (Interp.get_var env "final_err")

(* ------------------------------------------------------------------ *)

let test_checkpoint_resume_exact () =
  let data = mk_ratings () in
  (* uninterrupted: 8 passes *)
  let s1 = fresh_session data in
  let w1, h1 = fresh_params () in
  register s1 w1;
  register s1 h1;
  let _ = run_script s1 (train_script 8) in
  let uninterrupted = loss_of s1 in

  (* interrupted: 4 passes, checkpoint to disk, restore in a NEW
     session, 4 more passes *)
  let s2 = fresh_session data in
  let w2, h2 = fresh_params () in
  register s2 w2;
  register s2 h2;
  let _ = run_script s2 (train_script 4) in
  let dir = Filename.temp_dir "orion_wh" ".ckpt" in
  let ckpt =
    Orion_store.Checkpoint.save ~dir
      (Orion_store.Checkpoint.snapshot ~app:"mf" ~scale:1.0 ~pass:4
         ~total_passes:8 ~rng:0L
         [ ("W", w2); ("H", h2) ])
  in

  let s3 = fresh_session data in
  let w3, h3 = fresh_params () in
  Orion_store.Checkpoint.restore
    (Orion_store.Checkpoint.load ckpt)
    [ ("W", w3); ("H", h3) ];
  register s3 w3;
  register s3 h3;
  let _ = run_script s3 (train_script 4) in
  let resumed = loss_of s3 in
  Sys.remove ckpt;
  Sys.rmdir dir;
  (* restore writes back every stored cell bit for bit and the
     schedule is deterministic: resumption must match exactly *)
  Alcotest.(check (float 1e-9))
    "resumed training equals uninterrupted" uninterrupted resumed

let test_driver_controlled_termination () =
  (* the driver decides convergence dynamically: a while-loop around
     the parallel loop, terminating on an accumulator value *)
  let data = mk_ratings () in
  let session = fresh_session data in
  let w, h = fresh_params () in
  register session w;
  register session h;
  let env, stats =
    run_script session
      {|
step_size = 0.05
err = 1000000.0
iters = 0
while err > 150.0 && iters < 40
  @parallel_for for (key, rv) in ratings
    W_row = W[:, key[1]]
    H_row = H[:, key[2]]
    diff = rv - dot(W_row, H_row)
    W[:, key[1]] = W_row + 2.0 * step_size * diff * H_row
    H[:, key[2]] = H_row + 2.0 * step_size * diff * W_row
  end
  reset_accumulator("err")
  @parallel_for for (key, rv) in ratings
    err += abs2(rv - dot(W[:, key[1]], H[:, key[2]]))
  end
  err = get_aggregated_value("err")
  iters = iters + 1
end
|}
  in
  let err = Value.to_float (Interp.get_var env "err") in
  let iters = Value.to_float (Interp.get_var env "iters") in
  Alcotest.(check bool)
    (Printf.sprintf "converged to %.2f in %.0f iters" err iters)
    true
    (err <= 150.0 && iters < 40.0);
  Alcotest.(check bool) "ran multiple loop executions" true
    (List.length stats >= 4)

let test_mixed_strategies_one_program () =
  (* one driver program with a 2D-parallelized training loop and a
     dependence-free evaluation loop: both analyzed independently *)
  let data = mk_ratings () in
  let session = fresh_session data in
  let w, h = fresh_params () in
  register session w;
  register session h;
  let plans = analyze_script session (train_script 1 ^ eval_script) in
  (match plans with
  | [ train; eval ] ->
      (match train.Plan.strategy with
      | Plan.Two_d _ -> ()
      | s -> Alcotest.fail ("train: " ^ Plan.strategy_to_string s));
      Alcotest.(check int) "eval has no deps" 0
        (List.length eval.Plan.dep_vectors)
  | _ -> Alcotest.fail "expected two loops");
  (* and the combined program runs *)
  let env, _ = run_script session (train_script 3 ^ eval_script) in
  let err = Value.to_float (Interp.get_var env "final_err") in
  Alcotest.(check bool) "finite loss" true (Float.is_finite err)

let test_semantic_check_via_facade () =
  let data = mk_ratings () in
  let session = fresh_session data in
  let diags =
    check_script session "x = undefined_thing + 1\ny = dot(x)"
  in
  Alcotest.(check int) "two errors" 2 (List.length (Check.errors diags))

let test_run_script_deterministic () =
  let data = mk_ratings () in
  let run () =
    let session = fresh_session data in
    let w, h = fresh_params () in
    register session w;
    register session h;
    let _ = run_script session (train_script 5) in
    loss_of session
  in
  Alcotest.(check (float 0.0)) "bitwise deterministic" (run ()) (run ())

let test_interpreted_matches_native_body () =
  (* the native OCaml loop body must faithfully implement the
     OrionScript program: run both over the same derived schedule and
     compare losses (float op order differs slightly, hence the
     relative tolerance) *)
  let data = mk_ratings () in

  (* interpreted *)
  let s_interp = fresh_session data in
  let w, h = fresh_params () in
  register s_interp w;
  register s_interp h;
  let _ = run_script s_interp (train_script 6) in
  let interp_loss = loss_of s_interp in

  (* native: same plan source, same cluster shape, same schedule seed *)
  let s_native = fresh_session data in
  let model =
    Orion_apps.Sgd_mf.init_model ~rank ~num_users:24 ~num_items:20 ()
  in
  (* match the interpreted run's all-0.1 initialization *)
  Array.fill model.Orion_apps.Sgd_mf.w 0
    (Array.length model.Orion_apps.Sgd_mf.w)
    0.1;
  Array.fill model.Orion_apps.Sgd_mf.h 0
    (Array.length model.Orion_apps.Sgd_mf.h)
    0.1;
  Orion_apps.Sgd_mf.register_arrays s_native
    ~ratings:data.Orion_data.Ratings.ratings model;
  let plan = List.hd (analyze_script s_native (train_script 6)) in
  let compiled =
    compile s_native ~plan ~iter:data.Orion_data.Ratings.ratings ()
  in
  for _ = 1 to 6 do
    ignore
      (execute s_native compiled
         ~body:(Orion_apps.Sgd_mf.body model ~step_size:0.05)
         ())
  done;
  let native_loss =
    Orion_apps.Sgd_mf.loss model data.Orion_data.Ratings.ratings
  in
  let rel = abs_float (interp_loss -. native_loss) /. native_loss in
  Alcotest.(check bool)
    (Printf.sprintf "interpreted %.6f ~ native %.6f (rel %.2e)" interp_loss
       native_loss rel)
    true (rel < 1e-6)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "integration"
    [
      ( "fault-tolerance",
        [ tc "checkpoint/resume exact" `Quick test_checkpoint_resume_exact ] );
      ( "driver",
        [
          tc "while-loop termination" `Quick test_driver_controlled_termination;
          tc "mixed strategies" `Quick test_mixed_strategies_one_program;
          tc "semantic check" `Quick test_semantic_check_via_facade;
          tc "deterministic" `Quick test_run_script_deterministic;
          tc "interpreted matches native" `Quick
            test_interpreted_matches_native_body;
        ] );
    ]
