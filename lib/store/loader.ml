(* Shard directory -> in-memory dataset, streaming: each record is
   decoded and stored at its linearized key in the target Dist_array as
   it comes off the reader, one table operation per record.  With
   [~records:false] only the shard headers are read: the dataset comes
   back at its dimensions, with no entries. *)

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

(* a record's key component [i] must lie in [0, size); [offset] is the
   record's position in its shard, for the error *)
let check_index ~path ~offset what i size =
  if i < 0 || i >= size then
    corrupt ~offset path "record %s %d outside [0, %d)" what i size

(* stream every shard's records through [f path offset buf ~pos ~len] *)
let each_record paths f =
  List.iter (fun path -> Shard.iter path ~f:(f path)) paths

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
    each_record paths (fun path offset b ~pos ~len ->
        let r = Gen.decode_rating ~path b ~pos ~len in
        check_index ~path ~offset "user" r.Gen.r_user num_users;
        check_index ~path ~offset "item" r.Gen.r_item num_items;
        Dist_array.set_lin arr
          ((r.Gen.r_user * num_items) + r.Gen.r_item)
          r.Gen.r_value);
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
        let s = Gen.decode_sample ~path b ~pos ~len in
        check_index ~path ~offset "sample" s.Gen.fs_index num_samples;
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
  let tokens = ref 0 in
  each_record paths (fun path offset b ~pos ~len ->
      let t = Gen.decode_token ~path b ~pos ~len in
      tokens := !tokens + int_of_float t.Gen.tk_count;
      check_index ~path ~offset "doc" t.Gen.tk_doc num_docs;
      check_index ~path ~offset "word" t.Gen.tk_word vocab_size;
      Dist_array.set_lin arr
        ((t.Gen.tk_doc * vocab_size) + t.Gen.tk_word)
        t.Gen.tk_count);
  {
    Orion_data.Corpus.tokens = arr;
    num_docs;
    vocab_size;
    num_tokens = !tokens;
    num_topics_truth = meta "num_topics";
  }
