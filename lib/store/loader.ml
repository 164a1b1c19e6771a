(* Shard directory -> in-memory dataset, streaming: each record is
   read where the shard reader holds it and stored at its linearized
   key in the target Dist_array.  A sample is one table operation;
   ratings and tokens are checked one by one ([Gen.read_pairs]) and
   stored a batch at a time through the float table's C bulk store,
   with no allocation per record.  With two cores or more, the checks
   run on the crew's helper domain while the caller stores
   ([load_pairs]).
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

(* A reader and the caller share a ring of [in_flight] batches: the
   reader stages batch [published mod in_flight] and publishes it, the
   caller stores batch [stored mod in_flight] and frees it.  The batch
   being staged counts as in flight, so the reader starts one only
   while fewer than [in_flight] are published and not yet stored.  One
   condition serves both sides: the one that moves a counter, or
   [finished] or [stop], signals the other. *)
let in_flight = 4

(* raised in the reader when the caller has stopped it *)
exception Stopped

type ring = {
  batches : Gen.batch array;
  lengths : int array;
  lock : Mutex.t;
  moved : Condition.t;
  mutable published : int;
  mutable stored : int;
  mutable finished : bool;
  mutable stop : bool;
}

let signal r f =
  Mutex.protect r.lock (fun () ->
      f ();
      Condition.signal r.moved)

(* the reader's [flush]: publish [b]'s [n] pairs, then wait for the
   next batch to be free *)
let publish r _b n =
  let stop =
    Mutex.protect r.lock (fun () ->
        r.lengths.(r.published mod in_flight) <- n;
        r.published <- r.published + 1;
        Condition.signal r.moved;
        while r.published - r.stored >= in_flight && not r.stop do
          Condition.wait r.moved r.lock
        done;
        r.stop)
  in
  if stop then raise Stopped;
  r.batches.(r.published mod in_flight)

(* store every batch the reader publishes, in order, until it has
   finished and none is left *)
let rec drain r store =
  let next =
    Mutex.protect r.lock (fun () ->
        while r.stored = r.published && not r.finished do
          Condition.wait r.moved r.lock
        done;
        r.stored < r.published)
  in
  if next then begin
    let i = r.stored mod in_flight in
    store r.batches.(i) r.lengths.(i);
    signal r (fun () -> r.stored <- r.stored + 1);
    drain r store
  end

(* Every rating or token record of [paths] into the float table [arr],
   in record order; the sum of the values' integer parts.  The channels
   and the chunk buffer are the caller's, so that the reader allocates
   neither.  With one core the decode loop runs here and its [flush] is
   the store.  Otherwise it runs on the crew's helper 1
   ([Domain_exec.parallel]), which goes through the shards in order, so
   the first error it raises is the one the inline loop would: the
   caller stores every batch published before it, then [parallel]
   raises it.  When the caller's side raises, [stop] ends the reader at
   its next batch, and [parallel] waits for that before the caller's
   exception goes on. *)
let load_pairs paths ~what ~first ~second arr =
  let dims = Dist_array.dims arr in
  let rows = dims.(0) and cols = dims.(1) in
  let opened = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, ic) -> close_in_noerr ic) !opened)
  @@ fun () ->
  List.iter (fun p -> opened := (p, Shard.open_shard p) :: !opened) paths;
  let shards = List.rev !opened and chunk = Bytes.create Shard.chunk_len in
  let store (b : Gen.batch) n = Dist_array.store_floats arr b.keys b.values n in
  let read = Gen.read_pairs shards ~chunk ~what ~first ~second ~rows ~cols in
  if Domain.recommended_domain_count () = 1 then
    read (Gen.batch ()) ~flush:(fun b n ->
        store b n;
        b)
  else
    let r =
      {
        batches = Array.init in_flight (fun _ -> Gen.batch ());
        lengths = Array.make in_flight 0;
        lock = Mutex.create ();
        moved = Condition.create ();
        published = 0;
        stored = 0;
        finished = false;
        stop = false;
      }
    and total = ref 0 in
    Orion_runtime.Domain_exec.parallel 2 (fun job ->
        Fun.protect
          ~finally:(fun () ->
            signal r (fun () ->
                if job = 0 then r.stop <- true else r.finished <- true))
          (fun () ->
            if job = 0 then drain r store
            else total := read r.batches.(0) ~flush:(publish r)));
    !total

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
