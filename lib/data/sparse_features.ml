(** Synthetic high-dimensional sparse classification data (the
    "kdd_like" dataset for sparse logistic regression).

    KDD Cup 2010 (Algebra) has ~8.4M samples over ~20M binary features
    with extreme sparsity and Zipf feature popularity.  We plant a
    sparse ground-truth weight vector, draw each sample's active
    features Zipf-skewed, and label by the noisy sign of the margin —
    so SLR has signal to learn and logistic loss decreases. *)

open Orion_dsm

type sample = {
  label : float;  (** 0.0 or 1.0 *)
  features : int array;  (** active feature indices, ascending *)
  values : float array;  (** feature values (1.0 for binary data) *)
}

type t = {
  samples : sample Dist_array.t;  (** 1-D, one entry per sample *)
  num_samples : int;
  num_features : int;
  avg_nnz : float;
}

let generate ?(seed = 777) ~num_samples ~num_features ~nnz_per_sample
    ?(feature_skew = 1.1) ?(noise = 0.05) () =
  let rng = Rng.create seed in
  let zipf = Rng.zipf_create ~n:num_features ~s:feature_skew in
  let perm = Rng.permutation rng num_features in
  (* sparse ground truth: ~20% of features carry signal *)
  let truth =
    Array.init num_features (fun _ ->
        if Rng.float rng < 0.2 then Rng.gaussian rng else 0.0)
  in
  let total_nnz = ref 0 in
  let entries =
    List.init num_samples (fun s ->
        let n = max 2 (nnz_per_sample / 2) + Rng.int rng nnz_per_sample in
        let set = Hashtbl.create n in
        while Hashtbl.length set < n do
          Hashtbl.replace set perm.(Rng.zipf_draw rng zipf) ()
        done;
        let features =
          Hashtbl.fold (fun f () acc -> f :: acc) set []
          |> List.sort compare |> Array.of_list
        in
        let values = Array.make (Array.length features) 1.0 in
        let margin =
          Array.fold_left (fun acc f -> acc +. truth.(f)) 0.0 features
        in
        let label =
          if margin +. (noise *. Rng.gaussian rng) > 0.0 then 1.0 else 0.0
        in
        total_nnz := !total_nnz + Array.length features;
        ([| s |], { label; features; values }))
  in
  let samples =
    Dist_array.of_entries ~name:"samples" ~dims:[| num_samples |]
      ~default:{ label = 0.0; features = [||]; values = [||] }
      entries
  in
  {
    samples;
    num_samples;
    num_features;
    avg_nnz = float_of_int !total_nnz /. float_of_int num_samples;
  }

(* the shared body of [generate] and [generate_skewed]: draw each
   sample's active-feature set Zipf-skewed with a caller-chosen
   per-sample nnz *)
let generate_with_nnz ~seed ~num_samples ~num_features ~nnz_of_sample
    ~feature_skew ~noise () =
  let rng = Rng.create seed in
  let zipf = Rng.zipf_create ~n:num_features ~s:feature_skew in
  let perm = Rng.permutation rng num_features in
  let truth =
    Array.init num_features (fun _ ->
        if Rng.float rng < 0.2 then Rng.gaussian rng else 0.0)
  in
  let total_nnz = ref 0 in
  let entries =
    List.init num_samples (fun s ->
        let n = min (num_features - 1) (nnz_of_sample rng s) in
        let set = Hashtbl.create n in
        while Hashtbl.length set < n do
          Hashtbl.replace set perm.(Rng.zipf_draw rng zipf) ()
        done;
        let features =
          Hashtbl.fold (fun f () acc -> f :: acc) set []
          |> List.sort compare |> Array.of_list
        in
        let values = Array.make (Array.length features) 1.0 in
        let margin =
          Array.fold_left (fun acc f -> acc +. truth.(f)) 0.0 features
        in
        let label =
          if margin +. (noise *. Rng.gaussian rng) > 0.0 then 1.0 else 0.0
        in
        total_nnz := !total_nnz + Array.length features;
        ([| s |], { label; features; values }))
  in
  let samples =
    Dist_array.of_entries ~name:"samples" ~dims:[| num_samples |]
      ~default:{ label = 0.0; features = [||]; values = [||] }
      entries
  in
  {
    samples;
    num_samples;
    num_features;
    avg_nnz = float_of_int !total_nnz /. float_of_int num_samples;
  }

(** Length-skewed variant: per-sample nnz follows a Zipf-like power
    law [max_nnz / (s + 1)^alpha], front-loaded (sample 0 is heaviest).
    One sample = one iteration-space entry, so a count-balanced space
    partition over samples is even in entries but badly uneven in
    work — the workload the measured decision tree calibrates against. *)
let generate_skewed ?(seed = 777) ~num_samples ~num_features ~max_nnz
    ?(alpha = 1.0) ?(feature_skew = 1.1) ?(noise = 0.05) () =
  (* decay with rank *fraction*, not absolute rank: the head:tail
     density ratio (up to 20^alpha, floored at 4 nonzeros) survives any
     dataset scale, so count-balanced partitions stay work-imbalanced *)
  let n = float_of_int (max 1 num_samples) in
  let nnz_of_sample _rng s =
    let rank = 1.0 +. (19.0 *. float_of_int s /. n) in
    max 4 (int_of_float (float_of_int max_nnz /. (rank ** alpha)))
  in
  generate_with_nnz ~seed ~num_samples ~num_features ~nnz_of_sample
    ~feature_skew ~noise ()

let kdd_like ?(scale = 1.0) () =
  generate
    ~num_samples:(max 64 (int_of_float (2_000.0 *. scale)))
    ~num_features:(max 128 (int_of_float (20_000.0 *. scale)))
    ~nnz_per_sample:20 ()

(** Convert a sample to an interpreter value: a tuple
    [(label, feature_indices, feature_values)] with 1-based indices, as
    the SLR OrionScript program expects. *)
let sample_to_value (s : sample) : Orion_lang.Value.t =
  Orion_lang.Value.(
    Vtuple
      [
        Vfloat s.label;
        Vvec (Array.map (fun f -> float_of_int (f + 1)) s.features);
        Vvec s.values;
      ])
