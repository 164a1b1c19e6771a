(* Tests for the DSM layer: DistArrays, partitioner, buffers,
   accumulators, parameter server. *)

open Orion_dsm
module V = Orion_lang.Value

(* ------------------------------------------------------------------ *)
(* DistArray                                                           *)
(* ------------------------------------------------------------------ *)

let test_dense_roundtrip () =
  let a =
    Dist_array.init_dense ~name:"a" ~dims:[| 3; 4 |]
      ~f:(fun k -> float_of_int ((k.(0) * 10) + k.(1)))
  in
  Alcotest.(check (float 0.0)) "get" 23.0 (Dist_array.get a [| 2; 3 |]);
  Dist_array.set a [| 1; 2 |] 99.0;
  Alcotest.(check (float 0.0)) "set" 99.0 (Dist_array.get a [| 1; 2 |]);
  Alcotest.(check int) "count" 12 (Dist_array.count a)

let test_sparse_roundtrip () =
  let a = Dist_array.create_sparse ~name:"s" ~dims:[| 100; 100 |] ~default:0.0 in
  Dist_array.set a [| 5; 7 |] 1.5;
  Dist_array.set a [| 99; 0 |] 2.5;
  Alcotest.(check (float 0.0)) "stored" 1.5 (Dist_array.get a [| 5; 7 |]);
  Alcotest.(check (float 0.0)) "default" 0.0 (Dist_array.get a [| 0; 0 |]);
  Alcotest.(check int) "count" 2 (Dist_array.count a);
  Alcotest.(check bool) "get_opt none" true
    (Dist_array.get_opt a [| 1; 1 |] = None)

let test_bounds_checking () =
  let a = Dist_array.fill_dense ~name:"b" ~dims:[| 2; 2 |] 0.0 in
  (try
     ignore (Dist_array.get a [| 2; 0 |]);
     Alcotest.fail "expected bounds error"
   with Dist_array.Out_of_bounds _ -> ());
  try
    ignore (Dist_array.get a [| 0 |]);
    Alcotest.fail "expected dim mismatch"
  with Dist_array.Dimension_mismatch _ -> ()

let test_iteration_deterministic_sorted () =
  let a = Dist_array.create_sparse ~name:"s" ~dims:[| 10; 10 |] ~default:0.0 in
  (* insert in scrambled order *)
  List.iter
    (fun (i, j) -> Dist_array.set a [| i; j |] (float_of_int ((i * 10) + j)))
    [ (5, 5); (0, 3); (9, 9); (2, 1); (0, 1) ];
  let keys = ref [] in
  Dist_array.iter (fun k _ -> keys := Array.to_list k :: !keys) a;
  Alcotest.(check (list (list int)))
    "ascending key order"
    [ [ 0; 1 ]; [ 0; 3 ]; [ 2; 1 ]; [ 5; 5 ]; [ 9; 9 ] ]
    (List.rev !keys)

let test_update_and_fold () =
  let a = Dist_array.create_sparse ~name:"s" ~dims:[| 4 |] ~default:0.0 in
  Dist_array.update a [| 2 |] (fun v -> v +. 1.0);
  Dist_array.update a [| 2 |] (fun v -> v +. 1.0);
  let sum = Dist_array.fold (fun acc _ v -> acc +. v) 0.0 a in
  Alcotest.(check (float 0.0)) "fold" 2.0 sum

let test_map_and_group_by () =
  let a =
    Dist_array.of_entries ~name:"e" ~dims:[| 3; 3 |] ~default:0.0
      [ ([| 0; 0 |], 1.0); ([| 0; 2 |], 2.0); ([| 2; 1 |], 3.0) ]
  in
  let b = Dist_array.map ~name:"b" ~f:(fun v -> v *. 2.0) a in
  Alcotest.(check (float 0.0)) "mapped" 4.0 (Dist_array.get b [| 0; 2 |]);
  let groups = Dist_array.group_by ~dim:0 a in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let g0 = List.assoc 0 groups in
  Alcotest.(check int) "group 0 size" 2 (List.length g0)

let test_slice_vec () =
  let a =
    Dist_array.init_dense ~name:"m" ~dims:[| 3; 4 |]
      ~f:(fun k -> float_of_int ((k.(0) * 10) + k.(1)))
  in
  let col = Dist_array.slice_vec a [| V.Call_dim; V.Cpoint 2 |] in
  Alcotest.(check (array (float 0.0))) "column" [| 2.0; 12.0; 22.0 |] col;
  let row_part = Dist_array.slice_vec a [| V.Cpoint 1; V.Crange (1, 3) |] in
  Alcotest.(check (array (float 0.0))) "row range" [| 11.0; 12.0; 13.0 |]
    row_part;
  Dist_array.set_slice_vec a [| V.Call_dim; V.Cpoint 0 |] [| 7.0; 8.0; 9.0 |];
  Alcotest.(check (float 0.0)) "set slice" 8.0 (Dist_array.get a [| 1; 0 |])

let test_extern_bridge () =
  let a = Dist_array.fill_dense ~name:"x" ~dims:[| 2; 2 |] 1.0 in
  let gets = ref 0 in
  let ex = Dist_array.to_extern ~on_get:(fun _ -> incr gets) a in
  (match ex.V.ex_get [| V.Cpoint 0; V.Cpoint 1 |] with
  | V.Vfloat 1.0 -> ()
  | _ -> Alcotest.fail "extern get");
  ex.V.ex_set [| V.Cpoint 1; V.Cpoint 1 |] (V.Vfloat 5.0);
  Alcotest.(check (float 0.0)) "extern set" 5.0 (Dist_array.get a [| 1; 1 |]);
  Alcotest.(check int) "on_get hook" 1 !gets

let test_text_file_and_checkpoint () =
  let path = Filename.temp_file "orion" ".txt" in
  let oc = open_out path in
  output_string oc "0 1 4.5\n2 2 1.5\n# comment-free format\n";
  close_out oc;
  let parse_line line =
    match String.split_on_char ' ' (String.trim line) with
    | [ i; j; v ] -> (
        try Some ([| int_of_string i; int_of_string j |], float_of_string v)
        with Failure _ -> None)
    | _ -> None
  in
  let a =
    Dist_array.text_file ~name:"t" ~dims:[| 3; 3 |] ~default:0.0 ~parse_line
      path
  in
  Alcotest.(check int) "loaded entries" 2 (Dist_array.count a);
  Alcotest.(check (float 0.0)) "value" 4.5 (Dist_array.get a [| 0; 1 |]);
  let module Checkpoint = Orion_store.Checkpoint in
  let dir = Filename.temp_dir "orion" ".ckpt" in
  let ckpt =
    Checkpoint.save ~dir
      (Checkpoint.snapshot ~app:"text" ~scale:1.0 ~pass:1 ~total_passes:1
         ~rng:0L [ ("t", a) ])
  in
  let b = Dist_array.create_sparse ~name:"t" ~dims:[| 3; 3 |] ~default:0.0 in
  Checkpoint.restore (Checkpoint.load ckpt) [ ("t", b) ];
  Alcotest.(check int) "restored entries" 2 (Dist_array.count b);
  Alcotest.(check (float 0.0)) "restored" 1.5 (Dist_array.get b [| 2; 2 |]);
  Sys.remove path;
  Sys.remove ckpt;
  Sys.rmdir dir

let test_qcheck_linearize_roundtrip () =
  QCheck.Test.make ~count:300 ~name:"linearize/delinearize roundtrip"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 4) (int_range 1 12))
        (list_of_size (Gen.int_range 1 4) (int_range 0 1000)))
    (fun (dims_l, key_seed) ->
      let dims = Array.of_list dims_l in
      QCheck.assume (List.length key_seed = Array.length dims);
      let key =
        Array.of_list (List.mapi (fun i s -> s mod dims.(i)) key_seed)
      in
      let a = Dist_array.create_sparse ~name:"q" ~dims ~default:0.0 in
      let lin = Dist_array.linearize a key in
      Dist_array.delinearize a lin = key)

(* The sparse store against a Hashtbl model: any sequence of set /
   set_lin / update over a small key space (so keys repeat, forcing
   replacements and table growth) leaves the same stored entries, the
   same point reads, and ascending [sorted_keys]. *)
let test_qcheck_sparse_store_model () =
  QCheck.Test.make ~count:300 ~name:"sparse store matches a Hashtbl model"
    QCheck.(
      pair (int_range 1 40)
        (list (triple (int_range 0 2) (int_range 0 10_000) (int_range (-50) 50))))
    (fun (width, ops) ->
      let dims = [| width; 37 |] in
      let size = width * 37 in
      let a = Dist_array.create_sparse ~name:"m" ~dims ~default:(-1) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (op, k, v) ->
          let lin = k mod size in
          let key = Dist_array.delinearize a lin in
          match op with
          | 0 ->
              Dist_array.set a key v;
              Hashtbl.replace model lin v
          | 1 ->
              Dist_array.set_lin a lin v;
              Hashtbl.replace model lin v
          | _ ->
              Dist_array.update a key (fun x -> x + v);
              let cur = Option.value ~default:(-1) (Hashtbl.find_opt model lin) in
              Hashtbl.replace model lin (cur + v))
        ops;
      let want = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model []) in
      Dist_array.count a = Hashtbl.length model
      && Array.to_list (Dist_array.sorted_keys a) = want
      && List.for_all
           (fun lin ->
             let v = Hashtbl.find_opt model lin in
             let key = Dist_array.delinearize a lin in
             Dist_array.get_opt a key = v
             && Dist_array.get a key = Option.value ~default:(-1) v
             && (match Dist_array.find_lin a lin with
                | x -> Some x = v
                | exception Not_found -> v = None))
           (List.init size Fun.id)
      && Dist_array.for_all (fun x -> x >= -1000) a
      && Dist_array.entries (Dist_array.map ~name:"m2" ~f:(fun x -> 2 * x) a)
         = Array.map (fun (k, x) -> (k, 2 * x)) (Dist_array.entries a))

(* [sorted_keys] (a radix sort over the table) against a naive sort of
   the stored keys, with [sorted_values] aligned to it.  Dims come in
   two kinds: small ones, and shapes whose product sits just under
   [check_dims]'s overflow guard, so keys reach up to [max_int - 1] and
   every digit of the sort is exercised.  A new-key insert must
   invalidate the cached order; dense arrays list every cell. *)
let test_qcheck_sorted_keys () =
  let gen =
    QCheck.Gen.(
      let* small = array_size (int_range 1 3) (int_range 1 12) in
      let* huge = bool in
      let dims =
        if not huge then small
        else begin
          (* the last dim takes whatever the others leave of max_int *)
          let n = Array.length small in
          let rest = Array.fold_left ( * ) 1 (Array.sub small 0 (n - 1)) in
          Array.mapi (fun i d -> if i = n - 1 then max_int / rest else d) small
        end
      in
      let index d =
        (* near the top of the dimension, or anywhere in it *)
        let* near = bool and* r = int in
        let r = r land max_int in
        return (if near then d - 1 - (r mod min d 4) else r mod d)
      in
      let key = map Array.of_list (flatten_l (Array.to_list (Array.map index dims))) in
      let* keys = list_size (int_range 0 80) key and* extra = key in
      return (dims, keys, extra))
  in
  let print (dims, keys, _) =
    Printf.sprintf "dims [%s], %d keys"
      (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
      (List.length keys)
  in
  QCheck.Test.make ~count:500 ~name:"radix sorted_keys equals a naive sort"
    (QCheck.make ~print gen) (fun (dims, keys, extra) ->
      let a = Dist_array.create_sparse ~name:"r" ~dims ~default:(-1) in
      List.iteri (fun i k -> Dist_array.set a k i) keys;
      let naive () =
        List.sort_uniq compare (List.map (Dist_array.linearize a) (extra :: keys))
        |> List.filter (fun lin ->
               match Dist_array.find_lin a lin with
               | _ -> true
               | exception Not_found -> false)
      in
      let agrees () =
        let sorted = Dist_array.sorted_keys a in
        Array.to_list sorted = naive ()
        && Dist_array.sorted_values a (Array.init (Array.length sorted) Fun.id)
           = Array.map (Dist_array.find_lin a) sorted
      in
      let before = agrees () in
      (* overwriting a stored key keeps the order; a new key renews it *)
      List.iter (fun k -> Dist_array.set a k (-2)) keys;
      let kept = agrees () in
      Dist_array.set a extra 7;
      let dense =
        Dist_array.init_dense ~name:"d" ~dims:(Array.map (min 5) dims)
          ~f:(fun k -> Array.fold_left ( + ) 0 k)
      in
      let cells = Dist_array.count dense in
      before && kept && agrees ()
      && Dist_array.sorted_keys dense = Array.init cells Fun.id
      && Dist_array.sorted_values dense (Array.init cells Fun.id)
         = Array.map (Dist_array.find_lin dense) (Array.init cells Fun.id))

(* A float view reads exactly like the boxed copy it replaces: a
   random sparse or dense float array of 1–3 dims (values include NaN
   payloads and signed zeros, compared by their bits), seen both as
   [map ~f:Vfloat] and as [float_view].  Every read agrees, every
   write through the view raises, and the wire's float entry digest is
   the boxed one. *)
let test_qcheck_float_view () =
  let gen_float =
    QCheck.Gen.(
      oneof
        [
          float;
          oneofl [ nan; -0.0; 0.0; infinity; Float.min_float ];
          map
            (fun p ->
              Int64.float_of_bits
                (Int64.logor 0x7FF0_0000_0000_0001L (Int64.of_int p)))
            (int_bound 0xFFFF);
        ])
  in
  let gen =
    QCheck.Gen.(
      let* dims = array_size (int_range 1 3) (int_range 1 7) in
      let index d = int_bound (d - 1) in
      let key =
        map Array.of_list (flatten_l (Array.to_list (Array.map index dims)))
      in
      let* dense = bool
      and* entries = list_size (int_range 0 60) (pair key gen_float)
      and* default = gen_float
      and* ranks_seed = int
      and* cut = triple (int_bound 2) (int_range (-1) 7) (int_range 0 8)
      and* threshold = float in
      return (dims, dense, entries, default, ranks_seed, cut, threshold))
  in
  let print (dims, dense, entries, _, _, _, _) =
    Printf.sprintf "%s dims [%s], %d entries"
      (if dense then "dense" else "sparse")
      (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
      (List.length entries)
  in
  let bits = Int64.bits_of_float in
  let same (a : V.t) (b : V.t) =
    match (a, b) with
    | V.Vfloat x, V.Vfloat y -> Int64.equal (bits x) (bits y)
    | _ -> false
  in
  let same_entries a b =
    List.length a = List.length b
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && same v v') a b
  in
  let raises f =
    match f () with
    | () -> false
    | exception Dist_array.Read_only _ -> true
  in
  QCheck.Test.make ~count:300 ~name:"float view reads like the boxed copy"
    (QCheck.make ~print gen)
    (fun (dims, dense, entries, default, ranks_seed, (dim, lo, hi), threshold)
       ->
      let src =
        if dense then begin
          let a = Dist_array.fill_dense ~name:"f" ~dims default in
          List.iter (fun (k, x) -> Dist_array.set a k x) entries;
          a
        end
        else Dist_array.of_entries ~name:"f" ~dims ~default entries
      in
      let box x = V.Vfloat x in
      let copy = Dist_array.map ~name:"v" ~f:box src in
      let view = Dist_array.float_view ~name:"v" src in
      let n = Dist_array.count copy in
      let every_key =
        List.init (Array.fold_left ( * ) 1 dims) (Dist_array.delinearize src)
      in
      let listed f t = List.rev (f t) in
      let iterated t =
        listed (fun t ->
            let l = ref [] in
            Dist_array.iter (fun k v -> l := (k, v) :: !l) t;
            !l)
          t
      and folded t =
        listed (Dist_array.fold (fun acc k v -> (k, v) :: acc) []) t
      and entries t = Array.to_list (Dist_array.entries t) in
      let ranks =
        let r = Array.init n Fun.id in
        Orion_runtime.Schedule.shuffle_in_place ~seed:ranks_seed r;
        r
      in
      let dim = min dim (Array.length dims - 1) in
      let region t =
        let keys, values = Dist_array.region t ~dim ~lo ~hi in
        (keys, Array.to_list values)
      in
      let above = function V.Vfloat x -> x > threshold | _ -> false in
      let key0 = List.hd every_key in
      Dist_array.count view = n
      && Dist_array.is_sparse view = Dist_array.is_sparse copy
      && List.for_all
           (fun k ->
             same (Dist_array.get view k) (Dist_array.get copy k)
             &&
             match (Dist_array.get_opt view k, Dist_array.get_opt copy k) with
             | Some a, Some b -> same a b
             | None, None -> true
             | _ -> false)
           every_key
      && same view.Dist_array.default copy.Dist_array.default
      && same_entries (iterated view) (iterated copy)
      && same_entries (folded view) (folded copy)
      && same_entries (entries view) (entries copy)
      && Dist_array.sorted_keys view = Dist_array.sorted_keys copy
      && List.for_all2 same
           (Array.to_list (Dist_array.sorted_values view ranks))
           (Array.to_list (Dist_array.sorted_values copy ranks))
      && (let k, v = region view and k', v' = region copy in
          k = k' && List.for_all2 same v v')
      && Dist_array.for_all above view = Dist_array.for_all above copy
      (* every write through the view raises, even an empty one *)
      && raises (fun () -> Dist_array.set view key0 (V.Vfloat 1.0))
      && raises (fun () -> Dist_array.set_lin view 0 (V.Vfloat 1.0))
      && raises (fun () -> Dist_array.update view key0 Fun.id)
      && raises (fun () -> Dist_array.set_region view [||] [||])
      && Dist_array.entries src |> Array.for_all (fun (k, x) ->
             let lin = Dist_array.linearize src k in
             Orion_net.Wire.float_entry_digest lin x
             = Orion_net.Wire.entry_digest lin (V.Vfloat x)))

(* ------------------------------------------------------------------ *)
(* Lazy pipelines                                                      *)
(* ------------------------------------------------------------------ *)

let test_pipeline_laziness () =
  (* the map function must not run until materialize *)
  let runs = ref 0 in
  let p =
    Pipeline.of_entries ~name:"p" ~dims:[| 4 |]
      [ ([| 0 |], 1.0); ([| 2 |], 2.0) ]
    |> Pipeline.map ~f:(fun _ v ->
           incr runs;
           v *. 10.0)
  in
  Alcotest.(check int) "not evaluated yet" 0 !runs;
  Alcotest.(check int) "one recorded op" 1 (Pipeline.recorded_ops p);
  let a = Pipeline.materialize ~default:0.0 p in
  Alcotest.(check int) "evaluated once per entry" 2 !runs;
  Alcotest.(check (float 0.0)) "mapped" 20.0 (Dist_array.get a [| 2 |])

let test_pipeline_fusion_single_pass () =
  (* chained maps fuse: each entry visits the chain exactly once *)
  let first = ref 0 and second = ref 0 in
  let p =
    Pipeline.of_entries ~name:"p" ~dims:[| 3 |]
      [ ([| 0 |], 1.0); ([| 1 |], 2.0); ([| 2 |], 3.0) ]
    |> Pipeline.map ~f:(fun _ v ->
           incr first;
           v +. 1.0)
    |> Pipeline.map ~f:(fun _ v ->
           incr second;
           v *. 2.0)
  in
  let a = Pipeline.materialize ~default:0.0 p in
  Alcotest.(check int) "first ran 3x" 3 !first;
  Alcotest.(check int) "second ran 3x" 3 !second;
  Alcotest.(check (float 0.0)) "composed" 8.0 (Dist_array.get a [| 2 |])

let test_pipeline_filter () =
  let p =
    Pipeline.of_entries ~name:"p" ~dims:[| 10 |]
      (List.init 10 (fun i -> ([| i |], float_of_int i)))
    |> Pipeline.filter ~f:(fun _ v -> v >= 5.0)
    |> Pipeline.map ~f:(fun _ v -> v *. 2.0)
  in
  let a = Pipeline.materialize ~default:0.0 p in
  Alcotest.(check int) "filtered count" 5 (Dist_array.count a);
  Alcotest.(check (float 0.0)) "kept and mapped" 18.0 (Dist_array.get a [| 9 |])

let test_pipeline_text_file () =
  let path = Filename.temp_file "orion" ".txt" in
  let oc = open_out path in
  output_string oc "0 1.5
1 -2.0
2 3.0
";
  close_out oc;
  let parse_line line =
    match String.split_on_char ' ' (String.trim line) with
    | [ i; v ] -> Some ([| int_of_string i |], float_of_string v)
    | _ -> None
  in
  let a =
    Pipeline.text_file ~name:"t" ~dims:[| 3 |] ~parse_line path
    |> Pipeline.filter ~f:(fun _ v -> v > 0.0)
    |> Pipeline.map ~f:(fun key v -> v +. float_of_int key.(0))
    |> Pipeline.materialize ~default:0.0
  in
  Sys.remove path;
  Alcotest.(check int) "two survive" 2 (Dist_array.count a);
  Alcotest.(check (float 0.0)) "keyed map" 5.0 (Dist_array.get a [| 2 |])

let test_pipeline_of_dist_array () =
  let base = Dist_array.fill_dense ~name:"b" ~dims:[| 2; 2 |] 3.0 in
  let a =
    Pipeline.of_dist_array base
    |> Pipeline.map ~f:(fun _ v -> v *. v)
    |> Pipeline.materialize ~default:0.0
  in
  Alcotest.(check (float 0.0)) "squared" 9.0 (Dist_array.get a [| 1; 1 |])

let test_pipeline_fusion_law_qcheck () =
  (* materialize (map f (map g p)) = materialize (map (f . g) p) *)
  QCheck.Test.make ~count:200 ~name:"pipeline map fusion law"
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-100.0) 100.0))
    (fun values ->
      let entries = List.mapi (fun i v -> ([| i |], v)) values in
      let dims = [| List.length values |] in
      let f _ v = (v *. 2.0) +. 1.0 and g _ v = v -. 3.0 in
      let chained =
        Pipeline.of_entries ~name:"p" ~dims entries
        |> Pipeline.map ~f:g |> Pipeline.map ~f
        |> Pipeline.materialize ~default:0.0
      in
      let composed =
        Pipeline.of_entries ~name:"p" ~dims entries
        |> Pipeline.map ~f:(fun k v -> f k (g k v))
        |> Pipeline.materialize ~default:0.0
      in
      Dist_array.entries chained = Dist_array.entries composed)

let test_group_by_partitions_entries_qcheck () =
  QCheck.Test.make ~count:200 ~name:"group_by partitions the entries"
    QCheck.(
      list_of_size (Gen.int_range 1 30) (pair (int_range 0 5) (int_range 0 5)))
    (fun pairs ->
      let entries =
        List.sort_uniq compare pairs
        |> List.map (fun (i, j) -> ([| i; j |], float_of_int ((i * 7) + j)))
      in
      QCheck.assume (entries <> []);
      let a =
        Dist_array.of_entries ~name:"g" ~dims:[| 6; 6 |] ~default:0.0 entries
      in
      let groups = Dist_array.group_by ~dim:0 a in
      let total =
        List.fold_left (fun acc (_, l) -> acc + List.length l) 0 groups
      in
      total = Dist_array.count a
      && List.for_all
           (fun (g, l) -> List.for_all (fun (key, _) -> key.(0) = g) l)
           groups)

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)
(* ------------------------------------------------------------------ *)

let test_equal_ranges () =
  let b = Partitioner.equal_ranges ~dim_size:10 ~parts:3 in
  Alcotest.(check (array int)) "boundaries" [| 0; 3; 6; 10 |] b;
  Alcotest.(check int) "part of 0" 0 (Partitioner.part_of ~boundaries:b 0);
  Alcotest.(check int) "part of 5" 1 (Partitioner.part_of ~boundaries:b 5);
  Alcotest.(check int) "part of 9" 2 (Partitioner.part_of ~boundaries:b 9)

let test_balanced_ranges_skewed () =
  (* 80% of entries in the first index: balanced partitioning must not
     put everything in partition 0 *)
  let counts = [| 800; 25; 25; 25; 25; 25; 25; 25; 25 |] in
  let b = Partitioner.balanced_ranges ~counts ~parts:4 in
  Alcotest.(check int) "4 parts" 4 (Partitioner.num_parts b);
  let sizes = Partitioner.part_sizes ~boundaries:b ~counts in
  (* the skewed index dominates its partition but the rest spread out *)
  Alcotest.(check bool) "first cut right after hot index" true (b.(1) = 1);
  Alcotest.(check bool) "all partitions nonempty" true
    (Array.for_all (fun s -> s > 0) sizes)

let test_balanced_ranges_total_preserved () =
  QCheck.Test.make ~count:200 ~name:"balanced ranges cover everything"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 40) (int_range 0 50))
        (int_range 1 8))
    (fun (counts_l, parts) ->
      let counts = Array.of_list counts_l in
      let b = Partitioner.balanced_ranges ~counts ~parts in
      let sizes = Partitioner.part_sizes ~boundaries:b ~counts in
      b.(0) = 0
      && b.(Partitioner.num_parts b) = Array.length counts
      && Array.fold_left ( + ) 0 sizes = Array.fold_left ( + ) 0 counts
      && Array.for_all2 ( <= ) (Array.sub b 0 (Partitioner.num_parts b))
           (Array.sub b 1 (Partitioner.num_parts b)))

let test_part_of_boundaries_qcheck () =
  QCheck.Test.make ~count:200 ~name:"part_of respects boundaries"
    QCheck.(
      pair (list_of_size (Gen.int_range 1 30) (int_range 0 20)) (int_range 1 6))
    (fun (counts_l, parts) ->
      let counts = Array.of_list counts_l in
      QCheck.assume (Array.length counts >= parts);
      let b = Partitioner.balanced_ranges ~counts ~parts in
      let ok = ref true in
      for i = 0 to Array.length counts - 1 do
        let p = Partitioner.part_of ~boundaries:b i in
        if not (b.(p) <= i && i < b.(p + 1)) then ok := false
      done;
      !ok)

let test_histogram () =
  let a =
    Dist_array.of_entries ~name:"h" ~dims:[| 4; 2 |] ~default:0.0
      [ ([| 0; 0 |], 1.0); ([| 0; 1 |], 1.0); ([| 3; 0 |], 1.0) ]
  in
  Alcotest.(check (array int)) "histogram dim0" [| 2; 0; 0; 1 |]
    (Partitioner.histogram a ~dim:0)

let test_randomize_preserves_entries () =
  let entries =
    List.init 20 (fun i -> ([| i mod 10; i / 10 |], float_of_int i))
  in
  let a = Dist_array.of_entries ~name:"r" ~dims:[| 10; 2 |] ~default:0.0 entries in
  let b, perms = Partitioner.randomize a ~dims_to_shuffle:[ 0 ] in
  Alcotest.(check int) "count preserved" (Dist_array.count a)
    (Dist_array.count b);
  (* values follow their permuted keys *)
  List.iter
    (fun (key, v) ->
      let key' = [| perms.(0).(key.(0)); key.(1) |] in
      Alcotest.(check (float 0.0)) "moved value" v (Dist_array.get b key'))
    entries;
  (* dim 1 untouched *)
  Alcotest.(check (array int)) "dim1 identity" [| 0; 1 |] perms.(1)

(* ------------------------------------------------------------------ *)
(* Buffers and accumulators                                            *)
(* ------------------------------------------------------------------ *)

let test_buffer_combine_and_flush () =
  let b = Buffer.create ~name:"buf" ~num_workers:2 ~combine:( +. ) in
  Buffer.update b ~worker:0 ~key:5 1.0;
  Buffer.update b ~worker:0 ~key:5 2.0;
  Buffer.update b ~worker:0 ~key:3 10.0;
  Buffer.update b ~worker:1 ~key:5 100.0;
  Alcotest.(check int) "pending w0" 2 (Buffer.pending_count b ~worker:0);
  let items = Buffer.flush b ~worker:0 in
  Alcotest.(check bool) "sorted and combined" true
    (items = [ (3, 10.0); (5, 3.0) ]);
  Alcotest.(check int) "drained" 0 (Buffer.pending_count b ~worker:0);
  Alcotest.(check int) "w1 untouched" 1 (Buffer.pending_count b ~worker:1)

let test_buffer_flush_apply_udf () =
  let target = Array.make 10 1.0 in
  let b = Buffer.create ~name:"buf" ~num_workers:1 ~combine:( +. ) in
  Buffer.update b ~worker:0 ~key:2 0.5;
  Buffer.update b ~worker:0 ~key:7 (-0.25);
  let applied =
    Buffer.flush_apply b ~worker:0 ~udf:(fun k u ->
        target.(k) <- target.(k) +. u)
  in
  Alcotest.(check int) "two applied" 2 applied;
  Alcotest.(check (float 0.0)) "applied value" 1.5 target.(2);
  Alcotest.(check (float 0.0)) "applied value 2" 0.75 target.(7)

let test_accumulator () =
  let acc = Accumulator.create ~name:"err" ~num_workers:3 ~init:0.0 in
  Accumulator.add acc ~worker:0 ~op:( +. ) 1.0;
  Accumulator.add acc ~worker:1 ~op:( +. ) 2.0;
  Accumulator.add acc ~worker:1 ~op:( +. ) 3.0;
  Alcotest.(check (float 0.0)) "aggregate" 6.0
    (Accumulator.aggregated acc ~op:( +. ));
  Accumulator.reset acc;
  Alcotest.(check (float 0.0)) "reset" 0.0
    (Accumulator.aggregated acc ~op:( +. ))

let test_accumulator_nonneutral_init () =
  (* regression: [aggregated] used to seed the fold with [init] on top
     of the per-worker instances (which already start at [init]),
     counting a non-neutral init num_workers + 1 times *)
  let acc = Accumulator.create ~name:"count" ~num_workers:4 ~init:1.0 in
  Alcotest.(check (float 0.0)) "init counted once per worker" 4.0
    (Accumulator.aggregated acc ~op:( +. ));
  Accumulator.add acc ~worker:2 ~op:( +. ) 10.0;
  Alcotest.(check (float 0.0)) "adds on top" 14.0
    (Accumulator.aggregated acc ~op:( +. ));
  (* max with a floor init: the floor must not dominate real values *)
  let m = Accumulator.create ~name:"peak" ~num_workers:2 ~init:(-1e30) in
  Accumulator.add m ~worker:0 ~op:max 3.0;
  Accumulator.add m ~worker:1 ~op:max 7.0;
  Alcotest.(check (float 0.0)) "max aggregate" 7.0
    (Accumulator.aggregated m ~op:max)

let test_pipeline_rejects_bad_keys () =
  (* a malformed source entry fails at materialize with a message
     naming the pipeline, key and dims — not later inside the
     partitioner *)
  let expect_invalid msg p =
    Alcotest.check_raises "materialize rejects" (Invalid_argument msg)
      (fun () -> ignore (Pipeline.materialize ~default:0.0 p))
  in
  expect_invalid
    "Pipeline.materialize(oob): key (3, 99) out of bounds for declared dims \
     10x5"
    (Pipeline.of_entries ~name:"oob" ~dims:[| 10; 5 |]
       [ ([| 0; 0 |], 1.0); ([| 3; 99 |], 2.0) ]);
  expect_invalid
    "Pipeline.materialize(neg): key (-1) out of bounds for declared dims 4"
    (Pipeline.of_entries ~name:"neg" ~dims:[| 4 |] [ ([| -1 |], 1.0) ]);
  expect_invalid
    "Pipeline.materialize(arity): key (1, 2) out of bounds for declared dims 4"
    (Pipeline.of_entries ~name:"arity" ~dims:[| 4 |] [ ([| 1; 2 |], 1.0) ]);
  (* a parser emitting out-of-range keys is caught too *)
  let path = Filename.temp_file "orion_pipe" ".txt" in
  let oc = open_out path in
  output_string oc "0 1.0\n9 2.0\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      expect_invalid
        "Pipeline.materialize(t): key (9) out of bounds for declared dims 3"
        (Pipeline.text_file ~name:"t" ~dims:[| 3 |]
           ~parse_line:(fun line ->
             match String.split_on_char ' ' line with
             | [ k; v ] -> Some ([| int_of_string k |], float_of_string v)
             | _ -> None)
           path))

(* ------------------------------------------------------------------ *)
(* Parameter server                                                    *)
(* ------------------------------------------------------------------ *)

let mk_cluster () =
  Orion_sim.Cluster.create ~num_machines:2 ~workers_per_machine:2
    ~cost:Orion_sim.Cost_model.default ()

let test_ps_local_visibility () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:10 ~init:(fun _ -> 0.0)
  in
  Param_server.update ps ~worker:0 3 1.5;
  Alcotest.(check (float 0.0)) "own update visible" 1.5
    (Param_server.read ps ~worker:0 3);
  Alcotest.(check (float 0.0)) "other worker does not see it" 0.0
    (Param_server.read ps ~worker:1 3);
  Alcotest.(check (float 0.0)) "master unchanged" 0.0 (Param_server.master ps).(3)

let test_ps_sync_aggregates () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:4 ~init:(fun _ -> 0.0)
  in
  Param_server.update ps ~worker:0 0 1.0;
  Param_server.update ps ~worker:1 0 2.0;
  Param_server.update ps ~worker:2 1 5.0;
  let t0 = Orion_sim.Cluster.now c in
  Param_server.sync ps;
  Alcotest.(check (float 0.0)) "summed" 3.0 (Param_server.master ps).(0);
  Alcotest.(check (float 0.0)) "other key" 5.0 (Param_server.master ps).(1);
  (* all caches refreshed *)
  Alcotest.(check (float 0.0)) "cache refreshed" 3.0
    (Param_server.read ps ~worker:3 0);
  Alcotest.(check bool) "sync costs time" true (Orion_sim.Cluster.now c > t0)

let test_ps_managed_comm_topk () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:8 ~init:(fun _ -> 0.0)
  in
  (* worker 0 has a big and a small pending delta; budget allows 1 *)
  Param_server.update ps ~worker:0 1 10.0;
  Param_server.update ps ~worker:0 2 0.1;
  let bytes = Param_server.communicate_round ps ~budget_bytes_per_worker:24.0 in
  Alcotest.(check bool) "sent something" true (bytes > 0.0);
  Alcotest.(check (float 0.0)) "large delta communicated" 10.0
    (Param_server.master ps).(1);
  Alcotest.(check (float 0.0)) "small delta still pending" 0.0
    (Param_server.master ps).(2);
  (* other workers' caches refreshed with the fresh value *)
  Alcotest.(check (float 0.0)) "fresh value propagated" 10.0
    (Param_server.read ps ~worker:3 1);
  (* worker 0 keeps seeing its pending small delta *)
  Alcotest.(check (float 0.0)) "pending visible locally" 0.1
    (Param_server.read ps ~worker:0 2)

let test_ps_random_access_charges_latency () =
  let c = mk_cluster () in
  let ps =
    Param_server.create ~cluster:c ~name:"w" ~size:4 ~init:float_of_int
  in
  let t0 = Orion_sim.Cluster.clock c 1 in
  let v = Param_server.random_access_read ps ~worker:1 2 in
  Alcotest.(check (float 0.0)) "value" 2.0 v;
  Alcotest.(check bool) "latency charged" true
    (Orion_sim.Cluster.clock c 1 -. t0 >= 2.0 *. 1e-4)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dsm"
    [
      ( "dist_array",
        [
          tc "dense roundtrip" `Quick test_dense_roundtrip;
          tc "sparse roundtrip" `Quick test_sparse_roundtrip;
          tc "bounds" `Quick test_bounds_checking;
          tc "sorted iteration" `Quick test_iteration_deterministic_sorted;
          tc "update/fold" `Quick test_update_and_fold;
          tc "map/group_by" `Quick test_map_and_group_by;
          tc "slice vec" `Quick test_slice_vec;
          tc "extern bridge" `Quick test_extern_bridge;
          tc "text file + checkpoint" `Quick test_text_file_and_checkpoint;
          qc (test_qcheck_linearize_roundtrip ());
          qc (test_qcheck_sparse_store_model ());
          qc (test_qcheck_sorted_keys ());
          qc (test_qcheck_float_view ());
        ] );
      ( "pipeline",
        [
          tc "laziness" `Quick test_pipeline_laziness;
          tc "fusion single pass" `Quick test_pipeline_fusion_single_pass;
          tc "filter" `Quick test_pipeline_filter;
          tc "text file" `Quick test_pipeline_text_file;
          tc "of dist array" `Quick test_pipeline_of_dist_array;
          tc "rejects bad keys" `Quick test_pipeline_rejects_bad_keys;
          qc (test_pipeline_fusion_law_qcheck ());
          qc (test_group_by_partitions_entries_qcheck ());
        ] );
      ( "partitioner",
        [
          tc "equal ranges" `Quick test_equal_ranges;
          tc "balanced skewed" `Quick test_balanced_ranges_skewed;
          qc (test_balanced_ranges_total_preserved ());
          qc (test_part_of_boundaries_qcheck ());
          tc "histogram" `Quick test_histogram;
          tc "randomize" `Quick test_randomize_preserves_entries;
        ] );
      ( "buffer",
        [
          tc "combine/flush" `Quick test_buffer_combine_and_flush;
          tc "flush apply udf" `Quick test_buffer_flush_apply_udf;
          tc "accumulator" `Quick test_accumulator;
          tc "accumulator non-neutral init" `Quick
            test_accumulator_nonneutral_init;
        ] );
      ( "param_server",
        [
          tc "local visibility" `Quick test_ps_local_visibility;
          tc "sync aggregates" `Quick test_ps_sync_aggregates;
          tc "managed comm topk" `Quick test_ps_managed_comm_topk;
          tc "random access latency" `Quick test_ps_random_access_charges_latency;
        ] );
    ]
