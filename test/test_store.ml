(* Tests for the out-of-core data path (lib/store): shard container
   round-trips, positioned corruption reports, per-shard deterministic
   generation, shard-backed dataset loading, and checkpoint/restore —
   including resume-equivalence of interrupted training runs in sim and
   parallel modes. *)

module Shard = Orion_store.Shard
module Gen = Orion_store.Gen
module Loader = Orion_store.Loader
module Checkpoint = Orion_store.Checkpoint
module Dist_array = Orion_dsm.Dist_array
module Verify = Orion_verify.Verify

let tc = Alcotest.test_case
let qc = QCheck_alcotest.to_alcotest
let () = Orion_apps.Registry.ensure ()

(* distributed rows: exec'd workers (this suite also starts domains,
   after which a process may not fork), bounded waits.  The test binary
   lives in _build/default/test; the worker is a declared dep one
   directory over. *)
let () =
  let candidates =
    [
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/orion_worker.exe";
      Filename.concat (Sys.getcwd ()) "../bin/orion_worker.exe";
      Filename.concat (Sys.getcwd ()) "_build/default/bin/orion_worker.exe";
    ]
  in
  Option.iter
    (fun exe -> Unix.putenv Orion_net.Dist_master.spawn_env ("exec:" ^ exe))
    (List.find_opt Sys.file_exists candidates);
  Unix.putenv Orion_net.Dist_worker.timeout_env "60"

(* every test gets its own scratch directory under the system temp dir *)
let scratch =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "orion-store-test-%d-%s-%d" (Unix.getpid ()) prefix !n)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir prefix f =
  let dir = scratch prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Shard container: write records, stream them back bitwise            *)
(* ------------------------------------------------------------------ *)

let write_shard ~dir ?(shard = 0) ?(num_shards = 1) ?(meta = []) records =
  let path = Shard.shard_path ~dir shard in
  Sys.mkdir dir 0o755;
  let w =
    Shard.create_writer ~path ~schema:"test-v1" ~shard ~num_shards ~seed:7
      ~meta ()
  in
  List.iter (fun r -> Shard.write_record w (Bytes.of_string r)) records;
  (path, Shard.close_writer w)

(* a shard's records, copied out of the reader's buffer *)
let records_of path =
  let acc = ref [] in
  Shard.iter path ~f:(fun _ b ~pos ~len ->
      acc := Bytes.sub_string b pos len :: !acc);
  List.rev !acc

let count_records path =
  let n = ref 0 in
  Shard.iter path ~f:(fun _ _ ~pos:_ ~len:_ -> incr n);
  !n

let qcheck_shard_roundtrip =
  QCheck.Test.make ~count:100 ~name:"shard codec round-trip (bitwise)"
    QCheck.(small_list string)
    (fun records ->
      with_dir "roundtrip" (fun dir ->
          let path, hdr = write_shard ~dir ~meta:[ ("k", "v") ] records in
          hdr.Shard.h_count = List.length records
          && (Shard.read_header path).Shard.h_meta = [ ("k", "v") ]
          &&
          let got = records_of path in
          got = records))

let test_shard_header () =
  with_dir "header" (fun dir ->
      let path, _ =
        write_shard ~dir ~shard:0 ~num_shards:3
          ~meta:[ ("num_users", "12"); ("num_items", "5") ]
          [ "a"; "bb"; "" ]
      in
      let h = Shard.read_header path in
      Alcotest.(check string) "schema" "test-v1" h.Shard.h_schema;
      Alcotest.(check int) "shard" 0 h.Shard.h_shard;
      Alcotest.(check int) "num_shards" 3 h.Shard.h_num_shards;
      Alcotest.(check int) "seed" 7 h.Shard.h_seed;
      Alcotest.(check int) "count" 3 h.Shard.h_count;
      Alcotest.(check (list (pair string string)))
        "meta order preserved"
        [ ("num_users", "12"); ("num_items", "5") ]
        h.Shard.h_meta)

(* corruption must be rejected with the offset where the file stopped
   making sense, never silently decoded *)
let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: corrupt shard was accepted" what
  | exception Shard.Corrupt { path; offset; reason } ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: positioned error (%s at %d: %s)" what path offset
           reason)
        true
        (path <> "" && offset >= 0 && reason <> "")

let test_shard_corruption () =
  with_dir "corrupt" (fun dir ->
      let path, _ = write_shard ~dir [ "hello"; "world"; "again" ] in
      let image = read_file path in
      let len = String.length image in
      (* truncation: chop mid-record / mid-footer *)
      List.iter
        (fun keep ->
          let p = Filename.concat dir "trunc.orshard" in
          write_file p (String.sub image 0 keep);
          expect_corrupt
            (Printf.sprintf "truncated to %d/%d bytes" keep len)
            (fun () -> count_records p))
        [ len - 1; len - 8; len - 15; 10 ];
      (* bit flip in a record body: caught by the CRC *)
      let flipped = Bytes.of_string image in
      let mid = (len / 2) + 1 in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
      let p = Filename.concat dir "flip.orshard" in
      write_file p (Bytes.to_string flipped);
      expect_corrupt "bit flip" (fun () -> count_records p);
      (* wrong magic: rejected before any record is decoded *)
      let p2 = Filename.concat dir "magic.orshard" in
      write_file p2 ("XXXX" ^ String.sub image 4 (len - 4));
      expect_corrupt "bad magic" (fun () -> ignore (Shard.read_header p2)))

let test_writer_is_atomic () =
  with_dir "atomic" (fun dir ->
      Sys.mkdir dir 0o755;
      let path = Shard.shard_path ~dir 0 in
      let w =
        Shard.create_writer ~path ~schema:"test-v1" ~shard:0 ~num_shards:1
          ~seed:1 ()
      in
      Shard.write_record w (Bytes.of_string "partial");
      (* before close_writer only the temp file exists *)
      Alcotest.(check bool) "shard not yet published" false
        (Sys.file_exists path);
      Shard.discard_writer w;
      Alcotest.(check (list string)) "discard leaves nothing" []
        (Shard.list_shards dir))

(* A shard written by the container's writer, pinned bytewise (MD5 of
   the file): the layout and the CRC in its footer must not drift, or
   shards already on disk would stop verifying. *)
let test_shard_bytes_pinned () =
  with_dir "pinned" (fun dir ->
      let path, _ =
        write_shard ~dir ~meta:[ ("k", "v") ] [ "hello"; "world"; ""; "again" ]
      in
      Alcotest.(check string)
        "shard bytes" "e649e9730d65d190fe3f89063f3c82c8"
        (Digest.to_hex (Digest.string (read_file path)));
      Alcotest.(check (list string))
        "records read back"
        [ "hello"; "world"; ""; "again" ]
        (records_of path))

(* ------------------------------------------------------------------ *)
(* CRC-32: the zlib value, however the input is split                  *)
(* ------------------------------------------------------------------ *)

module Crc32 = Orion_store.Crc32

let test_crc_known_answers () =
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Crc32.digest (Bytes.of_string "123456789"));
  Alcotest.(check int32) "empty" 0l (Crc32.digest Bytes.empty);
  Alcotest.(check int32) "pangram" 0x414FA339l
    (Crc32.digest (Bytes.of_string "The quick brown fox jumps over the lazy dog"))

let qcheck_crc_split =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"any split of update calls equals digest"
    QCheck.(pair string (small_list small_nat))
    (fun (s, cuts) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let t = Crc32.create () in
      let last =
        List.fold_left
          (fun pos cut ->
            Crc32.update t b ~pos ~len:(cut - pos);
            cut)
          0 cuts
      in
      Crc32.update t b ~pos:last ~len:(n - last);
      (* [value] does not finalize: more updates may follow *)
      let mid = Crc32.value t in
      Crc32.update_string t "";
      mid = Crc32.digest b && Crc32.value t = mid)

(* the plain bitwise definition: no tables, one bit per step *)
let crc_reference b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* every byte value (bytes >= 0x80 set bit 31 of both 32-bit words the
   eight-byte step reads), every start offset mod 8, split inputs, and
   lengths both short and up to 4 KiB, over which the eight-byte step
   runs hundreds of times *)
let qcheck_crc_reference =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"slicing-by-8 equals the bitwise reference"
    QCheck.(
      quad
        (string_gen_of_size
           (Gen.oneof [ Gen.int_range 0 48; Gen.int_range 0 4096 ])
           Gen.char)
        (int_range 0 7)
        (oneof [ int_range 0 40; int_range 0 4096 ])
        (small_list small_nat))
    (fun (s, pos, len, cuts) ->
      let b = Bytes.of_string (s ^ String.make 48 '\xff') in
      let pos = min pos (Bytes.length b) in
      let len = min len (Bytes.length b - pos) in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> pos + (c mod (len + 1))) cuts)
      in
      let t = Crc32.create () in
      let last =
        List.fold_left
          (fun p cut ->
            Crc32.update t b ~pos:p ~len:(cut - p);
            cut)
          pos cuts
      in
      Crc32.update t b ~pos:last ~len:(pos + len - last);
      Crc32.value t = crc_reference b ~pos ~len)

let test_crc_high_bytes () =
  (* all-0xFF input: every lane of every step carries bit 31 and bit 63 *)
  List.iter
    (fun n ->
      let b = Bytes.make n '\xff' in
      Alcotest.(check int32)
        (Printf.sprintf "0xFF x %d" n)
        (crc_reference b ~pos:0 ~len:n) (Crc32.digest b))
    [ 0; 1; 7; 8; 9; 16; 17; 64 ];
  let b = Bytes.init 256 Char.chr in
  Alcotest.(check int32) "bytes 0..255" (crc_reference b ~pos:0 ~len:256)
    (Crc32.digest b)

(* ------------------------------------------------------------------ *)
(* Generators: deterministic and shard-independent                     *)
(* ------------------------------------------------------------------ *)

let small_ratings =
  Gen.Ratings
    {
      num_users = 50;
      num_items = 30;
      num_ratings = 600;
      skew = 1.1;
      rank = 4;
      noise = 0.1;
    }

let test_gen_shard_independent () =
  with_dir "full" (fun full_dir ->
      with_dir "solo" (fun solo_dir ->
          let seed = 99 and shards = 4 in
          ignore (Gen.generate ~dir:full_dir ~seed ~shards small_ratings);
          (* shard 2 regenerated alone, nothing before it *)
          ignore
            (Gen.generate_shard ~dir:solo_dir ~seed ~shards ~shard:2
               small_ratings);
          Alcotest.(check string)
            "shard 2 bitwise-identical whether or not shards 0..1 were \
             generated"
            (read_file (Shard.shard_path ~dir:full_dir 2))
            (read_file (Shard.shard_path ~dir:solo_dir 2))))

let test_gen_deterministic () =
  with_dir "a" (fun a ->
      with_dir "b" (fun b ->
          ignore (Gen.generate ~dir:a ~seed:5 ~shards:3 small_ratings);
          ignore (Gen.generate ~dir:b ~seed:5 ~shards:3 small_ratings);
          List.iter2
            (fun pa pb ->
              Alcotest.(check string)
                (Filename.basename pa ^ " reproducible") (read_file pa)
                (read_file pb))
            (Shard.list_shards a) (Shard.list_shards b);
          (* a different seed must actually change the stream *)
          with_dir "c" (fun c ->
              ignore (Gen.generate ~dir:c ~seed:6 ~shards:3 small_ratings);
              Alcotest.(check bool) "seed changes the records" false
                (read_file (Shard.shard_path ~dir:a 0)
                = read_file (Shard.shard_path ~dir:c 0)))))

let test_gen_counts () =
  with_dir "counts" (fun dir ->
      let headers = Gen.generate ~dir ~seed:3 ~shards:4 small_ratings in
      let total =
        List.fold_left (fun acc h -> acc + h.Shard.h_count) 0 headers
      in
      Alcotest.(check int) "shards partition the record range" 600 total;
      let hs = Shard.dataset_headers dir in
      Alcotest.(check int) "dataset_headers sees every shard" 4
        (List.length hs))

(* ------------------------------------------------------------------ *)
(* Loaders: shards stream into lib/data structures                     *)
(* ------------------------------------------------------------------ *)

let test_loader_ratings () =
  with_dir "load-r" (fun dir ->
      ignore (Gen.generate ~dir ~seed:11 ~shards:3 small_ratings);
      let d = Loader.ratings dir in
      Alcotest.(check int) "num_users" 50 d.Orion_data.Ratings.num_users;
      Alcotest.(check int) "num_items" 30 d.Orion_data.Ratings.num_items;
      Alcotest.(check bool) "ratings materialized (dups collapse)" true
        (d.Orion_data.Ratings.num_ratings > 0
        && d.Orion_data.Ratings.num_ratings <= 600);
      Dist_array.iter
        (fun key v ->
          Alcotest.(check bool) "key in bounds" true
            (key.(0) >= 0 && key.(0) < 50 && key.(1) >= 0 && key.(1) < 30);
          Alcotest.(check bool) "value finite" true (Float.is_finite v))
        d.Orion_data.Ratings.ratings)

let test_loader_features_corpus () =
  with_dir "load-f" (fun dir ->
      let spec =
        Gen.Features
          {
            num_samples = 40;
            num_features = 25;
            nnz_per_sample = 5;
            skew = 1.0;
            noise = 0.1;
          }
      in
      ignore (Gen.generate ~dir ~seed:2 ~shards:2 spec);
      let d = Loader.features dir in
      Alcotest.(check int) "num_samples" 40
        d.Orion_data.Sparse_features.num_samples;
      Alcotest.(check int) "num_features" 25
        d.Orion_data.Sparse_features.num_features);
  with_dir "load-c" (fun dir ->
      let spec =
        Gen.Corpus
          {
            num_docs = 20;
            vocab_size = 40;
            avg_doc_len = 12;
            num_topics = 3;
            skew = 1.0;
          }
      in
      ignore (Gen.generate ~dir ~seed:2 ~shards:2 spec);
      let d = Loader.corpus dir in
      Alcotest.(check int) "num_docs" 20 d.Orion_data.Corpus.num_docs;
      Alcotest.(check int) "vocab_size" 40 d.Orion_data.Corpus.vocab_size;
      Alcotest.(check bool) "tokens streamed" true
        (d.Orion_data.Corpus.num_tokens > 0))

(* A dataset directory of [schema]: shard [i] holds the encoded
   records [shards.(i)] and the metadata [meta i]. *)
let write_dataset ~dir ~schema ~meta shards =
  Sys.mkdir dir 0o755;
  List.iteri
    (fun i records ->
      let w =
        Shard.create_writer ~path:(Shard.shard_path ~dir i) ~schema ~shard:i
          ~num_shards:(List.length shards) ~seed:1 ~meta:(meta i) ()
      in
      List.iter (Shard.write_record w) records;
      ignore (Shard.close_writer w))
    shards

let ratings_meta ~users ~items =
  [ ("num_users", string_of_int users); ("num_items", string_of_int items) ]

let rating u i v = Gen.encode_rating { Gen.r_user = u; r_item = i; r_value = v }

let expect_corrupt_at ~path what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Shard.Corrupt c ->
      Alcotest.(check string) (what ^ ": names the shard") path c.path

let test_loader_bad_metadata () =
  with_dir "meta-int" (fun dir ->
      write_dataset ~dir ~schema:"ratings-v1"
        ~meta:(fun _ -> [ ("num_users", "12x"); ("num_items", "5") ])
        [ [ rating 0 0 1.0 ] ];
      expect_corrupt_at ~path:(Shard.shard_path ~dir 0) "non-integer metadata"
        (fun () -> Loader.ratings dir));
  with_dir "meta-zero" (fun dir ->
      write_dataset ~dir ~schema:"ratings-v1"
        ~meta:(fun _ -> ratings_meta ~users:0 ~items:5)
        [ [] ];
      expect_corrupt_at ~path:(Shard.shard_path ~dir 0) "a zero dimension"
        (fun () -> Loader.ratings dir));
  with_dir "meta-disagree" (fun dir ->
      write_dataset ~dir ~schema:"ratings-v1"
        ~meta:(fun i -> ratings_meta ~users:4 ~items:(if i = 2 then 6 else 5))
        [ [ rating 0 0 1.0 ]; [ rating 1 1 2.0 ]; [ rating 2 2 3.0 ] ];
      expect_corrupt_at ~path:(Shard.shard_path ~dir 2)
        "a shard disagreeing on num_items" (fun () -> Loader.ratings dir));
  with_dir "meta-missing" (fun dir ->
      write_dataset ~dir ~schema:"corpus-v1"
        ~meta:(fun i ->
          [ ("num_docs", "3"); ("vocab_size", "4") ]
          @ if i = 0 then [ ("num_topics", "2") ] else [])
        [ []; [] ];
      expect_corrupt_at ~path:(Shard.shard_path ~dir 1)
        "a shard missing num_topics" (fun () -> Loader.corpus dir));
  with_dir "key-bounds" (fun dir ->
      write_dataset ~dir ~schema:"ratings-v1"
        ~meta:(fun _ -> ratings_meta ~users:4 ~items:5)
        [ [ rating 0 0 1.0; rating 0 5 2.0 ] ];
      expect_corrupt_at ~path:(Shard.shard_path ~dir 0) "an item out of range"
        (fun () -> Loader.ratings dir))

(* A record that does not decode is reported at its own byte offset:
   the shard's framing, count and CRC are valid, and a good record
   precedes the bad one. *)
let expect_undecodable ~schema ~meta ~good ~bad load =
  with_dir "undecodable" (fun dir ->
      write_dataset ~dir ~schema ~meta:(fun _ -> meta) [ [ good; bad ] ];
      let path = Shard.shard_path ~dir 0 in
      let last = ref (-1) in
      Shard.iter path ~f:(fun offset _ ~pos:_ ~len:_ -> last := offset);
      match load dir with
      | () -> Alcotest.failf "%s: undecodable record accepted" schema
      | exception Shard.Corrupt c ->
          Alcotest.(check string) (schema ^ ": names the shard") path c.path;
          Alcotest.(check int) (schema ^ ": at the bad record") !last c.offset)

let test_undecodable_rating () =
  expect_undecodable ~schema:"ratings-v1"
    ~meta:(ratings_meta ~users:4 ~items:5)
    ~good:(rating 0 0 1.0)
    ~bad:(Bytes.cat (rating 1 1 2.0) (Bytes.of_string "x"))
    (fun dir -> ignore (Loader.ratings dir))

let test_undecodable_token () =
  let token d w c = Gen.encode_token { Gen.tk_doc = d; tk_word = w; tk_count = c } in
  expect_undecodable ~schema:"corpus-v1"
    ~meta:[ ("num_docs", "3"); ("vocab_size", "4"); ("num_topics", "2") ]
    ~good:(token 0 0 1.0)
    ~bad:(Bytes.sub (token 1 1 2.0) 0 15)
    (fun dir -> ignore (Loader.corpus dir))

let test_undecodable_sample () =
  let sample i n =
    Gen.encode_sample
      {
        Gen.fs_index = i;
        fs_label = 1.0;
        fs_features = Array.init n Fun.id;
        fs_values = Array.make n 1.0;
      }
  in
  (* two features' bytes, but a count of three *)
  let bad = sample 1 2 in
  Bytes.set_int32_le bad 12 3l;
  expect_undecodable ~schema:"features-v1"
    ~meta:[ ("num_samples", "4"); ("num_features", "5") ]
    ~good:(sample 0 2) ~bad
    (fun dir -> ignore (Loader.features dir))

(* Ratings and tokens load without allocating per record: fields are
   read in place and each value is stored unboxed, so the minor heap
   grows by a constant (headers, the table's first small arrays), never
   by the record count. *)
let test_loader_allocation () =
  let check what spec load =
    with_dir "alloc" (fun dir ->
        ignore (Gen.generate ~dir ~seed:5 ~shards:2 spec);
        let records = Loader.dataset_count dir in
        load dir;
        let before = Gc.minor_words () in
        load dir;
        let words = Gc.minor_words () -. before in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.0f minor words for %d records" what words
             records)
          true
          (records >= 15_000
          && words <= (0.1 *. float_of_int records) +. 8192.))
  in
  check "ratings"
    (Gen.Ratings
       {
         num_users = 2_000;
         num_items = 500;
         num_ratings = 20_000;
         skew = 1.1;
         rank = 4;
         noise = 0.1;
       })
    (fun dir -> ignore (Loader.ratings dir));
  check "corpus"
    (Gen.Corpus
       {
         num_docs = 1_100;
         vocab_size = 2_000;
         avg_doc_len = 20;
         num_topics = 5;
         skew = 1.05;
       })
    (fun dir -> ignore (Loader.corpus dir))

(* Loader equivalence: random shards with duplicate keys load exactly
   as a record-order [Dist_array.set] build of the same records. *)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* the loaded array against a reference built by [set]: same keys in
   the same order, values equal under [eq] *)
let same_array eq loaded reference =
  Dist_array.count loaded = Dist_array.count reference
  && Dist_array.sorted_keys loaded = Dist_array.sorted_keys reference
  && Array.for_all2
       (fun (k, v) (k', v') -> k = k' && eq v v')
       (Dist_array.entries loaded) (Dist_array.entries reference)

(* 1–3 shards of records drawn over a small key space, so duplicates
   are common *)
let gen_shards gen_record =
  QCheck.Gen.(list_size (int_range 1 3) (list_size (int_range 0 40) gen_record))

let print_shards shards =
  Printf.sprintf "%d shards, %s records" (List.length shards)
    (String.concat "+" (List.map (fun l -> string_of_int (List.length l)) shards))

let qcheck_loader_ratings =
  let gen =
    QCheck.Gen.(
      let* users = int_range 1 6 and* items = int_range 1 6 in
      let* shards =
        gen_shards
          (let* u = int_bound (users - 1) and* i = int_bound (items - 1)
           and* v = float in
           return (u, i, v))
      in
      return (users, items, shards))
  in
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"ratings load as a record-order set build"
    (QCheck.make ~print:(fun (_, _, s) -> print_shards s) gen)
    (fun (users, items, shards) ->
      with_dir "eq-r" (fun dir ->
          write_dataset ~dir ~schema:"ratings-v1"
            ~meta:(fun _ -> ratings_meta ~users ~items)
            (List.map (List.map (fun (u, i, v) -> rating u i v)) shards);
          let reference =
            Dist_array.create_sparse ~name:"ratings" ~dims:[| users; items |]
              ~default:0.0
          in
          List.iter
            (List.iter (fun (u, i, v) -> Dist_array.set reference [| u; i |] v))
            shards;
          let d = Loader.ratings dir in
          d.Orion_data.Ratings.num_ratings = Dist_array.count reference
          && same_array same_bits d.Orion_data.Ratings.ratings reference))

let qcheck_loader_features =
  let gen =
    QCheck.Gen.(
      let* samples = int_range 1 8 in
      let* shards =
        gen_shards
          (let* index = int_bound (samples - 1) and* label = float
           and* nnz = int_bound 4 in
           let* features = array_repeat nnz (int_bound 20)
           and* values = array_repeat nnz float in
           return
             {
               Gen.fs_index = index;
               fs_label = label;
               fs_features = features;
               fs_values = values;
             })
      in
      return (samples, shards))
  in
  let same_sample a b =
    same_bits a.Orion_data.Sparse_features.label b.Orion_data.Sparse_features.label
    && a.Orion_data.Sparse_features.features = b.Orion_data.Sparse_features.features
    && Array.for_all2 same_bits a.Orion_data.Sparse_features.values
         b.Orion_data.Sparse_features.values
  in
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"features load as a record-order set build"
    (QCheck.make ~print:(fun (_, s) -> print_shards s) gen)
    (fun (samples, shards) ->
      with_dir "eq-f" (fun dir ->
          write_dataset ~dir ~schema:"features-v1"
            ~meta:(fun _ ->
              [ ("num_samples", string_of_int samples); ("num_features", "20") ])
            (List.map (List.map Gen.encode_sample) shards);
          let empty =
            { Orion_data.Sparse_features.label = 0.0; features = [||]; values = [||] }
          in
          let reference =
            Dist_array.create_sparse ~name:"samples" ~dims:[| samples |]
              ~default:empty
          in
          let nnz = ref 0 in
          List.iter
            (List.iter (fun s ->
                 nnz := !nnz + Array.length s.Gen.fs_features;
                 Dist_array.set reference [| s.Gen.fs_index |]
                   {
                     Orion_data.Sparse_features.label = s.Gen.fs_label;
                     features = s.Gen.fs_features;
                     values = s.Gen.fs_values;
                   }))
            shards;
          let d = Loader.features dir in
          same_bits d.Orion_data.Sparse_features.avg_nnz
            (float_of_int !nnz
            /. float_of_int (max 1 (Dist_array.count reference)))
          && same_array same_sample d.Orion_data.Sparse_features.samples reference))

let qcheck_loader_corpus =
  let gen =
    QCheck.Gen.(
      let* docs = int_range 1 6 and* vocab = int_range 1 6 in
      let* shards =
        gen_shards
          (let* d = int_bound (docs - 1) and* w = int_bound (vocab - 1)
           and* c = int_range 1 9 in
           return { Gen.tk_doc = d; tk_word = w; tk_count = float_of_int c })
      in
      return (docs, vocab, shards))
  in
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"corpus loads as a record-order set build"
    (QCheck.make ~print:(fun (_, _, s) -> print_shards s) gen)
    (fun (docs, vocab, shards) ->
      with_dir "eq-c" (fun dir ->
          write_dataset ~dir ~schema:"corpus-v1"
            ~meta:(fun _ ->
              [
                ("num_docs", string_of_int docs);
                ("vocab_size", string_of_int vocab);
                ("num_topics", "2");
              ])
            (List.map (List.map Gen.encode_token) shards);
          let reference =
            Dist_array.create_sparse ~name:"tokens" ~dims:[| docs; vocab |]
              ~default:0.0
          in
          let tokens = ref 0 in
          List.iter
            (List.iter (fun t ->
                 tokens := !tokens + int_of_float t.Gen.tk_count;
                 Dist_array.set reference [| t.Gen.tk_doc; t.Gen.tk_word |]
                   t.Gen.tk_count))
            shards;
          let d = Loader.corpus dir in
          d.Orion_data.Corpus.num_tokens = !tokens
          && d.Orion_data.Corpus.num_topics_truth = 2
          && same_array same_bits d.Orion_data.Corpus.tokens reference))

let find_app name =
  match Orion.App.find name with
  | Some a -> a
  | None -> Alcotest.failf "app %s missing from registry" name

(* an app built from a sharded dataset (ORION_DATA_RATINGS) trains *)
let test_store_backed_app () =
  with_dir "backed" (fun dir ->
      ignore (Gen.generate ~dir ~seed:17 ~shards:2 small_ratings);
      Unix.putenv Orion_apps.Registry.ratings_dir_env dir;
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv Orion_apps.Registry.ratings_dir_env "")
        (fun () ->
          let app = find_app "mf" in
          let inst =
            app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:2 ()
          in
          let r =
            Orion.Engine.run inst.Orion.App.inst_session inst ~mode:`Sim
              ~passes:1 ()
          in
          Alcotest.(check bool) "entries came from the shards" true
            (r.Orion.Engine.ep_entries > 0);
          let loss =
            match app.Orion.App.app_loss with
            | Some f -> f inst
            | None -> Alcotest.fail "mf has a loss"
          in
          Alcotest.(check bool) "loss finite on shard-backed data" true
            (Float.is_finite loss)))

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let test_checkpoint_roundtrip () =
  with_dir "ck" (fun dir ->
      let dense = Dist_array.fill_dense ~name:"d" ~dims:[| 4; 3 |] 0.0 in
      Dist_array.set dense [| 1; 2 |] 0.1;
      Dist_array.set dense [| 3; 0 |] (-7.25);
      let sparse =
        Dist_array.create_sparse ~name:"s" ~dims:[| 100 |] ~default:0.0
      in
      Dist_array.set sparse [| 42 |] 1e-9;
      let arrays = [ ("d", dense); ("s", sparse) ] in
      let s =
        Checkpoint.snapshot ~app:"mf" ~scale:2.0 ~pass:3 ~total_passes:5
          ~rng:123456789L arrays
      in
      let path = Checkpoint.save ~dir s in
      (* a second, older checkpoint must not win [latest] *)
      ignore
        (Checkpoint.save ~dir
           (Checkpoint.snapshot ~app:"mf" ~scale:2.0 ~pass:1 ~total_passes:5
              ~rng:1L arrays));
      (match Checkpoint.latest dir with
      | Some (p, got) ->
          Alcotest.(check string) "latest is the highest pass" path p;
          Alcotest.(check int) "pass" 3 got.Checkpoint.ck_pass;
          Alcotest.(check int) "total passes" 5 got.Checkpoint.ck_total_passes;
          Alcotest.(check string) "app" "mf" got.Checkpoint.ck_app;
          Alcotest.(check int64) "rng" 123456789L got.Checkpoint.ck_rng;
          let d2 = Dist_array.fill_dense ~name:"d" ~dims:[| 4; 3 |] 0.0 in
          let s2 =
            Dist_array.create_sparse ~name:"s" ~dims:[| 100 |] ~default:0.0
          in
          Checkpoint.restore got [ ("d", d2); ("s", s2) ];
          Alcotest.(check int64) "dense bits" (bits 0.1)
            (bits (Dist_array.get d2 [| 1; 2 |]));
          Alcotest.(check int64) "dense bits 2" (bits (-7.25))
            (bits (Dist_array.get d2 [| 3; 0 |]));
          Alcotest.(check int64) "sparse bits" (bits 1e-9)
            (bits (Dist_array.get s2 [| 42 |]))
      | None -> Alcotest.fail "no checkpoint found");
      (* corruption: a flipped payload byte must fail the CRC *)
      let image = read_file path in
      let flipped = Bytes.of_string image in
      let mid = String.length image / 2 in
      Bytes.set flipped mid
        (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
      let bad = Filename.concat dir "bad.orck" in
      write_file bad (Bytes.to_string flipped);
      match Checkpoint.load bad with
      | _ -> Alcotest.fail "corrupt checkpoint was accepted"
      | exception Checkpoint.Corrupt _ -> ())

(* A payload whose header and CRC are valid but which does not decode
   is [Corrupt], never another exception: the payload is built by hand
   (the snapshot's fields, then one sparse part of array "s" over 100
   cells holding 1e-9 at key 42) with one fault at a time. *)
let test_checkpoint_malformed_payload () =
  let module Codec = Orion_dsm.Codec in
  let module B = Stdlib.Buffer in
  let payload ?(narrays = 1) ?(count = 1) ?(key_mode = 0) ?(cut = 0)
      ?(tail = "") () =
    let b = B.create 64 in
    Codec.put_string b "mf";
    Codec.put_float b 1.0;
    Codec.put_varint b 1;
    Codec.put_varint b 2;
    Codec.put_int64 b 7L;
    Codec.put_varint b narrays;
    let part_at = B.length b in
    Codec.put_string b "s";
    Codec.put_varint b 1;
    Codec.put_varint b 100;
    Codec.put_float b 0.0;
    B.add_char b '\001';
    Codec.put_varint b count;
    B.add_char b (Char.chr key_mode);
    Codec.put_varint b 42;
    B.add_char b '\000';
    Codec.put_float b 1e-9;
    B.add_string b tail;
    (B.sub b part_at (B.length b - part_at), B.sub b 0 (B.length b - cut))
  in
  let framed ?(version = Checkpoint.version) payload =
    let b = B.create 64 in
    B.add_string b "ORCK";
    B.add_int32_le b (Int32.of_int version);
    B.add_int32_le b (Orion_store.Crc32.digest (Bytes.of_string payload));
    B.add_string b payload;
    B.contents b
  in
  with_dir "ck-malformed" (fun dir ->
      Sys.mkdir dir 0o755;
      let path = Filename.concat dir "pass-0001.orck" in
      let load ?version payload =
        write_file path (framed ?version payload);
        Checkpoint.load path
      in
      (* the hand-built layout is the real one *)
      let sparse = Dist_array.create_sparse ~name:"s" ~dims:[| 100 |] ~default:0.0 in
      Dist_array.set sparse [| 42 |] 1e-9;
      let part, valid = payload () in
      Alcotest.(check string) "hand-built part is the codec's"
        (Bytes.to_string (fst (Codec.encode_part (Dist_array.to_partition sparse))))
        part;
      let s = load valid in
      Alcotest.(check int) "valid payload: passes" 1 s.Checkpoint.ck_pass;
      Alcotest.(check int64) "valid payload: rng" 7L s.Checkpoint.ck_rng;
      let corrupt ?version what payload =
        match load ?version payload with
        | _ -> Alcotest.failf "%s: malformed checkpoint was accepted" what
        | exception Checkpoint.Corrupt _ -> ()
      in
      for cut = 1 to String.length part do
        corrupt (Printf.sprintf "part cut by %d bytes" cut) (snd (payload ~cut ()))
      done;
      corrupt "count beyond the cells" (snd (payload ~count:101 ()));
      corrupt "count of 2^40" (snd (payload ~count:(1 lsl 40) ()));
      corrupt "count beyond the keys" (snd (payload ~count:2 ()));
      corrupt "bad key mode" (snd (payload ~key_mode:7 ()));
      corrupt "two parts claimed" (snd (payload ~narrays:2 ()));
      corrupt "bytes after the part" (snd (payload ~tail:"x" ()));
      corrupt ~version:1 "a version-1 file" valid)

(* ------------------------------------------------------------------ *)
(* Resume equivalence: a run checkpointed at pass k and resumed from   *)
(* the checkpoint reaches the same final state as the uninterrupted    *)
(* run — bitwise for unbuffered apps, within tolerance for buffered    *)
(* FP accumulation whose merge association differs across the cut      *)
(* ------------------------------------------------------------------ *)

let check_outputs ~what ~tolerance a b =
  List.iter2
    (fun (name_a, arr_a) (_, arr_b) ->
      let d = Orion_dsm.Dist_array.diff_arrays name_a arr_a arr_b in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s equal (max abs %.3e, max rel %.3e)" what
           name_a d.Orion_dsm.Dist_array.d_max_abs d.Orion_dsm.Dist_array.d_max_rel)
        true
        (Orion_dsm.Dist_array.diff_ok ~tolerance d))
    a b

let rng_state inst =
  Orion.Interp.Rng.state inst.Orion.App.inst_env.Orion.Interp.rng

(* an instance shaped for [mode]: a distributed run needs one worker
   per machine and one machine per process *)
let make_for (app : Orion.App.t) ~mode () =
  match mode with
  | `Distributed { Orion.Engine.procs; _ } ->
      app.Orion.App.app_make ~num_machines:procs ~workers_per_machine:1 ()
  | `Sim | `Parallel _ ->
      app.Orion.App.app_make ~num_machines:2 ~workers_per_machine:2 ()

let dist2 = `Distributed { Orion.Engine.procs = 2; transport = `Unix }

let resume_matches name ~mode ~tolerance () =
  let app = find_app name in
  let passes = 4 and cut = 2 in
  let make = make_for app ~mode in
  (* truth: uninterrupted *)
  let truth = make () in
  ignore
    (Orion.Engine.run truth.Orion.App.inst_session truth ~mode ~passes ());
  with_dir ("resume-" ^ name) (fun dir ->
      (* interrupted: checkpoint every pass, stop after [cut] *)
      let inst1 = make () in
      let sink ~pass_done arrays =
        ignore
          (Checkpoint.save ~dir
             (Checkpoint.snapshot ~app:name ~scale:1.0 ~pass:pass_done
                ~total_passes:passes ~rng:(rng_state inst1) arrays))
      in
      ignore
        (Orion.Engine.run inst1.Orion.App.inst_session inst1 ~mode
           ~passes:cut ~checkpoint:(1, sink) ());
      (* resume: fresh instance, newest checkpoint, remaining passes *)
      match Checkpoint.latest dir with
      | None -> Alcotest.fail "no checkpoint written"
      | Some (_, s) ->
          Alcotest.(check int) "checkpointed at the cut" cut
            s.Checkpoint.ck_pass;
          let inst2 = make () in
          Checkpoint.restore s inst2.Orion.App.inst_arrays;
          Orion.Interp.Rng.set_state
            inst2.Orion.App.inst_env.Orion.Interp.rng s.Checkpoint.ck_rng;
          ignore
            (Orion.Engine.run inst2.Orion.App.inst_session inst2 ~mode
               ~passes:(passes - s.Checkpoint.ck_pass) ());
          check_outputs
            ~what:
              (Printf.sprintf "%s %s resumed-vs-uninterrupted" name
                 (Orion.Engine.mode_to_string mode))
            ~tolerance truth.Orion.App.inst_outputs
            inst2.Orion.App.inst_outputs)

(* Checkpoint cadence: [~checkpoint:(2, sink)] over 5 passes calls the
   sink after passes 2 and 4, and only then, in every mode *)
let cadence_every_2 mode () =
  let app = find_app "mf" in
  let inst = make_for app ~mode () in
  let calls = ref [] in
  let sink ~pass_done _ = calls := pass_done :: !calls in
  ignore
    (Orion.Engine.run inst.Orion.App.inst_session inst ~mode ~passes:5
       ~checkpoint:(2, sink) ());
  Alcotest.(check (list int))
    (Orion.Engine.mode_to_string mode ^ " sink calls")
    [ 2; 4 ] (List.rev !calls)

(* a cadence below one pass is a caller error in every mode, raised
   before anything runs *)
let cadence_below_one () =
  let app = find_app "mf" in
  List.iter
    (fun mode ->
      List.iter
        (fun every ->
          let inst = make_for app ~mode () in
          match
            Orion.Engine.run inst.Orion.App.inst_session inst ~mode ~passes:2
              ~checkpoint:(every, fun ~pass_done:_ _ -> ())
              ()
          with
          | _ ->
              Alcotest.failf "%s: every %d accepted"
                (Orion.Engine.mode_to_string mode) every
          | exception Invalid_argument _ -> ())
        [ 0; -1 ])
    [ `Sim; `Parallel 2; dist2 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "shard",
        [
          qc qcheck_shard_roundtrip;
          tc "header fields round-trip" `Quick test_shard_header;
          tc "corruption is rejected with a position" `Quick
            test_shard_corruption;
          tc "writer publishes atomically" `Quick test_writer_is_atomic;
          tc "shard bytes are pinned" `Quick test_shard_bytes_pinned;
        ] );
      ( "crc32",
        [
          tc "known answers" `Quick test_crc_known_answers;
          qc qcheck_crc_split;
          qc qcheck_crc_reference;
          tc "high bytes" `Quick test_crc_high_bytes;
        ]
      );
      ( "gen",
        [
          tc "shard k independent of shards 0..k-1" `Quick
            test_gen_shard_independent;
          tc "generation is deterministic per seed" `Quick
            test_gen_deterministic;
          tc "shards partition the record range" `Quick test_gen_counts;
        ] );
      ( "loader",
        [
          tc "ratings stream back from shards" `Quick test_loader_ratings;
          tc "features and corpus stream back" `Quick
            test_loader_features_corpus;
          tc "mf trains on a shard-backed dataset" `Quick
            test_store_backed_app;
          tc "bad metadata and keys are positioned errors" `Quick
            test_loader_bad_metadata;
          tc "a rating of 17 bytes is a positioned error" `Quick
            test_undecodable_rating;
          tc "a token of 15 bytes is a positioned error" `Quick
            test_undecodable_token;
          tc "a sample overrunning its record is positioned" `Quick
            test_undecodable_sample;
          tc "ratings and tokens load without allocating" `Quick
            test_loader_allocation;
          qc qcheck_loader_ratings;
          qc qcheck_loader_features;
          qc qcheck_loader_corpus;
        ] );
      ( "checkpoint",
        [
          tc "save/load/restore round-trip" `Quick test_checkpoint_roundtrip;
          tc "malformed payload with a valid CRC" `Quick
            test_checkpoint_malformed_payload;
          tc "cadence every 2: sim" `Quick (cadence_every_2 `Sim);
          tc "cadence every 2: parallel" `Quick (cadence_every_2 (`Parallel 2));
          tc "cadence every 2: distributed" `Quick (cadence_every_2 dist2);
          tc "cadence below one pass is rejected" `Quick cadence_below_one;
        ] );
      ( "resume",
        [
          tc "mf sim" `Quick (resume_matches "mf" ~mode:`Sim ~tolerance:None);
          tc "lda sim" `Quick
            (resume_matches "lda" ~mode:`Sim ~tolerance:None);
          tc "gbt sim" `Quick
            (resume_matches "gbt" ~mode:`Sim ~tolerance:None);
          tc "slr sim" `Quick
            (resume_matches "slr" ~mode:`Sim ~tolerance:(Some 1e-9));
          tc "mf parallel" `Slow
            (resume_matches "mf" ~mode:(`Parallel 2) ~tolerance:None);
          tc "slr parallel" `Slow
            (resume_matches "slr" ~mode:(`Parallel 2) ~tolerance:(Some 1e-9));
          tc "mf distributed" `Slow
            (resume_matches "mf" ~mode:dist2 ~tolerance:None);
          tc "slr distributed" `Slow
            (resume_matches "slr" ~mode:dist2 ~tolerance:(Some 1e-9));
        ] );
    ]
