(* Shard directory -> in-memory dataset, streaming: each record is
   read where the shard reader holds it and stored at its linearized
   key in the target Dist_array, one table operation per record;
   ratings and tokens with no allocation at all ([Gen.read_pairs]).
   With [~records:false] only the shard headers are read: the dataset
   comes back at its dimensions, with no entries. *)

open Orion_dsm

let corrupt ?(offset = 0) path fmt =
  Printf.ksprintf
    (fun reason -> raise (Shard.Corrupt { path; offset; reason }))
    fmt

let header_int ~path h key =
  match List.assoc_opt key h.Shard.h_meta with
  | None -> corrupt path "missing metadata key %S" key
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> n
      | _ -> corrupt path "metadata %S is not a positive integer: %S" key v)

(* The dataset's shard paths, in index order, and its integer metadata
   [keys] (the dimensions, so positive), which every shard must agree
   on. *)
let open_dataset dir ~schema ~keys =
  let headers = Shard.dataset_headers dir in
  let h0 = List.hd headers in
  if h0.Shard.h_schema <> schema then
    corrupt dir "schema %S where %S was expected" h0.Shard.h_schema schema;
  let paths = List.mapi (fun i _ -> Shard.shard_path ~dir i) headers in
  let path0 = List.hd paths in
  let values =
    List.map (fun key -> (key, header_int ~path:path0 h0 key)) keys
  in
  List.iter2
    (fun path h ->
      List.iter
        (fun (key, v0) ->
          let v = header_int ~path h key in
          if v <> v0 then
            corrupt path "metadata %S is %d, shard 0 has %d" key v v0)
        values)
    paths headers;
  (paths, fun key -> List.assoc key values)

(* stream every shard's records through [f path offset buf ~pos ~len] *)
let each_record paths f =
  List.iter (fun path -> Shard.iter path ~f:(f path)) paths

(* every rating or token record of [paths] into the float table [arr]
   ({!Gen.read_pairs}); the sum of the values' integer parts *)
let load_pairs paths ~what ~first ~second arr =
  List.fold_left
    (fun total path -> total + Gen.read_pairs path ~what ~first ~second arr)
    0 paths

let dataset_count dir =
  Shard.dataset_headers dir
  |> List.fold_left (fun acc h -> acc + h.Shard.h_count) 0

let ratings ?(records = true) dir =
  let paths, meta =
    open_dataset dir ~schema:"ratings-v1" ~keys:[ "num_users"; "num_items" ]
  in
  let num_users = meta "num_users" and num_items = meta "num_items" in
  let arr =
    Dist_array.create_sparse ~name:"ratings" ~dims:[| num_users; num_items |]
      ~default:0.0
  in
  if records then
    ignore
      (load_pairs paths ~what:"rating" ~first:"user" ~second:"item" arr);
  {
    Orion_data.Ratings.ratings = arr;
    num_users;
    num_items;
    (* duplicate (user, item) draws overwrite, so the live entry count
       can be below the record count *)
    num_ratings = Dist_array.count arr;
    rank_truth = 0;
  }

let features ?(records = true) dir =
  let paths, meta =
    open_dataset dir ~schema:"features-v1"
      ~keys:[ "num_samples"; "num_features" ]
  in
  let num_samples = meta "num_samples" and num_features = meta "num_features" in
  let empty =
    { Orion_data.Sparse_features.label = 0.0; features = [||]; values = [||] }
  in
  let arr =
    Dist_array.create_sparse ~name:"samples" ~dims:[| num_samples |]
      ~default:empty
  in
  let nnz = ref 0 in
  if records then
    each_record paths (fun path offset b ~pos ~len ->
        let s = Gen.decode_sample ~path ~offset b ~pos ~len in
        Gen.check_key ~path ~offset "sample" s.Gen.fs_index num_samples;
        nnz := !nnz + Array.length s.Gen.fs_features;
        Dist_array.set_lin arr s.Gen.fs_index
          {
            Orion_data.Sparse_features.label = s.Gen.fs_label;
            features = s.Gen.fs_features;
            values = s.Gen.fs_values;
          });
  let stored = max 1 (Dist_array.count arr) in
  {
    Orion_data.Sparse_features.samples = arr;
    num_samples;
    num_features;
    avg_nnz = float_of_int !nnz /. float_of_int stored;
  }

let corpus dir =
  let paths, meta =
    open_dataset dir ~schema:"corpus-v1"
      ~keys:[ "num_docs"; "vocab_size"; "num_topics" ]
  in
  let num_docs = meta "num_docs" and vocab_size = meta "vocab_size" in
  let arr =
    Dist_array.create_sparse ~name:"tokens" ~dims:[| num_docs; vocab_size |]
      ~default:0.0
  in
  let tokens =
    load_pairs paths ~what:"token" ~first:"doc" ~second:"word" arr
  in
  {
    Orion_data.Corpus.tokens = arr;
    num_docs;
    vocab_size;
    num_tokens = tokens;
    num_topics_truth = meta "num_topics";
  }
