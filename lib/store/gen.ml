(* Streaming generators: records go straight from the per-shard RNG
   stream into the shard writer.  See gen.mli for the determinism
   contract. *)

module Rng = Orion_data.Rng
module Dist_array = Orion_dsm.Dist_array

type spec =
  | Ratings of {
      num_users : int;
      num_items : int;
      num_ratings : int;
      skew : float;
      rank : int;
      noise : float;
    }
  | Features of {
      num_samples : int;
      num_features : int;
      nnz_per_sample : int;
      skew : float;
      noise : float;
    }
  | Corpus of {
      num_docs : int;
      vocab_size : int;
      avg_doc_len : int;
      num_topics : int;
      skew : float;
    }

let movielens_spec ?(scale = 1.0) () =
  let s n = max 4 (int_of_float (float_of_int n *. scale)) in
  Ratings
    {
      num_users = s 69_878;
      num_items = s 10_677;
      num_ratings = s 10_000_054;
      skew = 1.1;
      rank = 4;
      noise = 0.1;
    }

let kdd_spec ?(scale = 1.0) () =
  let s n = max 4 (int_of_float (float_of_int n *. scale)) in
  Features
    {
      num_samples = s 8_400_000;
      num_features = s 1_000_000;
      nnz_per_sample = 20;
      skew = 1.1;
      noise = 0.05;
    }

let nytimes_spec ?(scale = 1.0) () =
  let s n = max 4 (int_of_float (float_of_int n *. scale)) in
  Corpus
    {
      num_docs = s 299_752;
      vocab_size = s 101_636;
      avg_doc_len = 20;
      num_topics = 20;
      skew = 1.05;
    }

let schema_of_spec = function
  | Ratings _ -> "ratings-v1"
  | Features _ -> "features-v1"
  | Corpus _ -> "corpus-v1"

let spec_kind = function
  | Ratings _ -> "ratings"
  | Features _ -> "features"
  | Corpus _ -> "corpus"

(* ------------------------------------------------------------------ *)
(* Record codecs                                                       *)
(* ------------------------------------------------------------------ *)

let bad ~path ~offset what =
  raise
    (Shard.Corrupt { path; offset; reason = "undecodable " ^ what ^ " record" })

let key_outside ~path ~offset what i size =
  raise
    (Shard.Corrupt
       {
         path;
         offset;
         reason = Printf.sprintf "record %s %d outside [0, %d)" what i size;
       })

let[@inline] check_key ~path ~offset what i size =
  if i < 0 || i >= size then key_outside ~path ~offset what i size

type rating = { r_user : int; r_item : int; r_value : float }

(* ratings and tokens share one layout: two u32 key components, then
   the f64 value *)
let pair_len = 16

let encode_pair first second v =
  let b = Bytes.create pair_len in
  Bytes.set_int32_le b 0 (Int32.of_int first);
  Bytes.set_int32_le b 4 (Int32.of_int second);
  Bytes.set_int64_le b 8 (Int64.bits_of_float v);
  b

let encode_rating r = encode_pair r.r_user r.r_item r.r_value

(* Each record is read where the reader holds it, and its value goes
   straight into the float table's slot: no record, no boxed float,
   and no call per field, since a call makes the loop spill every live
   value around it (the default build is [-opaque], so no other
   module's function is inlined here). *)
let read_pairs path ~what ~first ~second (arr : float Dist_array.t) =
  let dims = Dist_array.dims arr in
  let rows = dims.(0) and cols = dims.(1) in
  let total = ref 0 in
  Shard.iter path ~f:(fun offset b ~pos ~len ->
      if len <> pair_len then bad ~path ~offset what;
      let i = Int32.to_int (Bytes.get_int32_le b pos) in
      let j = Int32.to_int (Bytes.get_int32_le b (pos + 4)) in
      check_key ~path ~offset first i rows;
      check_key ~path ~offset second j cols;
      let slot = Dist_array.slot_lin arr ((i * cols) + j) in
      let values = Dist_array.slot_values arr in
      values.(slot) <- Int64.float_of_bits (Bytes.get_int64_le b (pos + 8));
      total := !total + int_of_float values.(slot));
  !total

type sample = {
  fs_index : int;
  fs_label : float;
  fs_features : int array;
  fs_values : float array;
}

let encode_sample s =
  let n = Array.length s.fs_features in
  if n <> Array.length s.fs_values then
    invalid_arg "encode_sample: features/values length mismatch";
  let b = Bytes.create (16 + (12 * n)) in
  Bytes.set_int32_le b 0 (Int32.of_int s.fs_index);
  Bytes.set_int64_le b 4 (Int64.bits_of_float s.fs_label);
  Bytes.set_int32_le b 12 (Int32.of_int n);
  Array.iteri
    (fun k f ->
      Bytes.set_int32_le b (16 + (12 * k)) (Int32.of_int f);
      Bytes.set_int64_le b (16 + (12 * k) + 4)
        (Int64.bits_of_float s.fs_values.(k)))
    s.fs_features;
  b

let decode_sample ~path ~offset b ~pos ~len =
  if len < 16 then bad ~path ~offset "sample";
  let n = Int32.to_int (Bytes.get_int32_le b (pos + 12)) in
  if n < 0 || len <> 16 + (12 * n) then bad ~path ~offset "sample";
  {
    fs_index = Int32.to_int (Bytes.get_int32_le b pos);
    fs_label = Int64.float_of_bits (Bytes.get_int64_le b (pos + 4));
    fs_features =
      Array.init n (fun k ->
          Int32.to_int (Bytes.get_int32_le b (pos + 16 + (12 * k))));
    fs_values =
      Array.init n (fun k ->
          Int64.float_of_bits (Bytes.get_int64_le b (pos + 16 + (12 * k) + 4)));
  }

type token = { tk_doc : int; tk_word : int; tk_count : float }

let encode_token t = encode_pair t.tk_doc t.tk_word t.tk_count

(* ------------------------------------------------------------------ *)
(* Stateless planted structure                                         *)
(* ------------------------------------------------------------------ *)

(* A deterministic standard normal / uniform that is a pure function of
   (seed, index): the planted model (factor matrices, ground-truth
   weights) is never materialized, so generator memory stays bounded by
   the Zipf CDFs, not by users x rank tables. *)
let hash_gaussian ~seed ~index = Rng.gaussian (Rng.split ~seed ~index)
let hash_uniform ~seed ~index = Rng.float (Rng.split ~seed ~index)

(* ------------------------------------------------------------------ *)
(* Shard ranges                                                        *)
(* ------------------------------------------------------------------ *)

(* split [total] items over [shards] shards: shard k owns the
   contiguous range [base, base + size) *)
let shard_range ~total ~shards ~shard =
  let per = (total + shards - 1) / shards in
  let base = min total (shard * per) in
  let size = min per (total - base) in
  (base, size)

let meta_int k v = (k, string_of_int v)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let generate_shard ~dir ~seed ~shards ~shard:k spec =
  if k < 0 || k >= shards then invalid_arg "Gen.generate_shard: bad shard index";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Shard.shard_path ~dir k in
  let schema = schema_of_spec spec in
  (* shard k's stream depends only on (seed, k) *)
  let rng = Rng.split ~seed ~index:k in
  match spec with
  | Ratings { num_users; num_items; num_ratings; skew; rank; noise } ->
      let base, size = shard_range ~total:num_ratings ~shards ~shard:k in
      let w =
        Shard.create_writer ~path ~schema ~shard:k ~num_shards:shards ~seed
          ~meta:
            [
              meta_int "num_users" num_users;
              meta_int "num_items" num_items;
              meta_int "num_ratings" num_ratings;
              meta_int "base" base;
            ]
          ()
      in
      Fun.protect
        ~finally:(fun () -> Shard.discard_writer w)
        (fun () ->
          let user_zipf = Rng.zipf_create ~n:num_users ~s:skew in
          let item_zipf = Rng.zipf_create ~n:num_items ~s:skew in
          let scale = 1.0 /. sqrt (float_of_int rank) in
          for _ = 1 to size do
            let u = Rng.zipf_draw rng user_zipf in
            let i = Rng.zipf_draw rng item_zipf in
            (* planted low-rank value: factors are pure hashes of
               (seed, row/column), never stored *)
            let v = ref 0.0 in
            for r = 0 to rank - 1 do
              v :=
                !v
                +. hash_gaussian ~seed:(seed lxor 0x5EED1) ~index:((r * num_users) + u)
                   *. hash_gaussian ~seed:(seed lxor 0x5EED2) ~index:((r * num_items) + i)
            done;
            let value = (scale *. !v) +. (noise *. Rng.gaussian rng) in
            Shard.write_record w (encode_pair u i value)
          done;
          Shard.close_writer w)
  | Features { num_samples; num_features; nnz_per_sample; skew; noise } ->
      let base, size = shard_range ~total:num_samples ~shards ~shard:k in
      let w =
        Shard.create_writer ~path ~schema ~shard:k ~num_shards:shards ~seed
          ~meta:
            [
              meta_int "num_samples" num_samples;
              meta_int "num_features" num_features;
              meta_int "base" base;
            ]
          ()
      in
      Fun.protect
        ~finally:(fun () -> Shard.discard_writer w)
        (fun () ->
          let zipf = Rng.zipf_create ~n:num_features ~s:skew in
          (* sparse ground truth, stateless: ~20% of features carry a
             hashed gaussian weight *)
          let truth f =
            if hash_uniform ~seed:(seed lxor 0x7EE7) ~index:f < 0.2 then
              hash_gaussian ~seed:(seed lxor 0x7EE8) ~index:f
            else 0.0
          in
          for s = base to base + size - 1 do
            let n = max 2 (nnz_per_sample / 2) + Rng.int rng nnz_per_sample in
            let set = Hashtbl.create n in
            (* cap the dedup loop on tiny feature spaces *)
            let attempts = ref 0 in
            while Hashtbl.length set < n && !attempts < n * 20 do
              Hashtbl.replace set (Rng.zipf_draw rng zipf) ();
              incr attempts
            done;
            let features =
              Hashtbl.fold (fun f () acc -> f :: acc) set []
              |> List.sort compare |> Array.of_list
            in
            let values = Array.make (Array.length features) 1.0 in
            let margin =
              Array.fold_left (fun acc f -> acc +. truth f) 0.0 features
            in
            let label =
              if margin +. (noise *. Rng.gaussian rng) > 0.0 then 1.0 else 0.0
            in
            Shard.write_record w
              (encode_sample
                 {
                   fs_index = s;
                   fs_label = label;
                   fs_features = features;
                   fs_values = values;
                 })
          done;
          Shard.close_writer w)
  | Corpus { num_docs; vocab_size; avg_doc_len; num_topics; skew } ->
      let base, size = shard_range ~total:num_docs ~shards ~shard:k in
      let w =
        Shard.create_writer ~path ~schema ~shard:k ~num_shards:shards ~seed
          ~meta:
            [
              meta_int "num_docs" num_docs;
              meta_int "vocab_size" vocab_size;
              meta_int "num_topics" num_topics;
              meta_int "base" base;
            ]
          ()
      in
      Fun.protect
        ~finally:(fun () -> Shard.discard_writer w)
        (fun () ->
          let word_zipf = Rng.zipf_create ~n:vocab_size ~s:skew in
          let topic_offset t = t * vocab_size / num_topics in
          for d = base to base + size - 1 do
            (* one small per-document count table; emitted and dropped
               before the next document *)
            let counts = Hashtbl.create 32 in
            let ntopics = 1 + Rng.int rng 3 in
            let topics = Array.init ntopics (fun _ -> Rng.int rng num_topics) in
            let len = max 4 (avg_doc_len / 2) + Rng.int rng avg_doc_len in
            for _ = 1 to len do
              let topic = topics.(Rng.int rng ntopics) in
              let word =
                (Rng.zipf_draw rng word_zipf + topic_offset topic) mod vocab_size
              in
              Hashtbl.replace counts word
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts word))
            done;
            (* ascending word order: the record stream is deterministic *)
            Hashtbl.fold (fun wd c acc -> (wd, c) :: acc) counts []
            |> List.sort compare
            |> List.iter (fun (wd, c) ->
                   Shard.write_record w (encode_pair d wd (float_of_int c)))
          done;
          Shard.close_writer w)

let generate ~dir ~seed ~shards spec =
  List.init shards (fun k -> generate_shard ~dir ~seed ~shards ~shard:k spec)
