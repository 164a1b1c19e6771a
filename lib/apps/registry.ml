(** The one registry of built-in applications (mf, slr, lda, gbt),
    populating {!Orion.App}.  Each app provides:

    - [app_make]: a small deterministic instance — every DistArray the
      loop touches is a real {!Orion_dsm.Dist_array} registered with the
      session, the loop body runs fully interpreted, and host builtins
      are written to be order-independent across dependence-respecting
      serializations (so two such runs must agree, exactly or to the
      declared tolerance).  [?scale] grows the dataset for benchmarking.
    - [app_register_meta]: the paper-scale (Table 2) array shapes, so
      the analysis pipeline can run without materializing data.

    Registration happens at module initialization; consumers that only
    link this library call {!ensure} to force the initializer to run. *)

open Orion_lang
open Orion_dsm

let parse_loop script =
  let program = Parser.parse_program script in
  match Orion_analysis.Refs.find_parallel_loops program with
  | stmt :: _ -> stmt
  | [] -> invalid_arg "app script has no @parallel_for loop"

let loop_parts (stmt : Ast.stmt) =
  match stmt.Ast.sk with
  | Ast.For { kind = Ast.Each_loop { key; value; arr }; body; _ } ->
      (key, value, arr, body)
  | _ -> invalid_arg "app loop is not a parallel each-loop"

let bind_extern env (arr : float Dist_array.t) =
  Interp.set_var env (Dist_array.name arr)
    (Value.Vextern (Dist_array.to_extern arr))

(* order-independent integer hash (initial topics, sampling draws) *)
let mix x =
  let x = (x + 0x7ED55D16 + (x lsl 12)) land 0x3FFFFFFF in
  let x = (x lxor 0xC761C23C lxor (x lsr 19)) land 0x3FFFFFFF in
  let x = (x + 0x165667B1 + (x lsl 5)) land 0x3FFFFFFF in
  ((x * 1103515245) + 12345) land 0x3FFFFFFF

let scaled scale n = max 2 (int_of_float (Float.round (float_of_int n *. scale)))

(* ------------------------------------------------------------------ *)
(* Out-of-core datasets                                                *)
(* ------------------------------------------------------------------ *)

(* When set, [app_make] loads the dataset from a sharded directory
   ([lib/store]) instead of generating it in memory.  Environment
   variables — not parameters — so the exec'd distributed workers
   find the same shards: they read the headers for the array shapes,
   and the records only where a host builtin needs them. *)
let ratings_dir_env = "ORION_DATA_RATINGS"
let features_dir_env = "ORION_DATA_FEATURES"
let corpus_dir_env = "ORION_DATA_CORPUS"

let data_dir env_var =
  match Sys.getenv_opt env_var with
  | Some dir when dir <> "" -> Some dir
  | _ -> None

(* A dataset at its shape, with no records: what [~records:false]
   builds from a generator's parameters.  Distributed workers run the
   entries their schedule rows carry, so only the dims matter to them. *)
let no_ratings ~num_users ~num_items =
  {
    Orion_data.Ratings.ratings =
      Dist_array.create_sparse ~name:"ratings" ~dims:[| num_users; num_items |]
        ~default:0.0;
    num_users;
    num_items;
    num_ratings = 0;
    rank_truth = 0;
  }

let no_samples ~num_samples ~num_features =
  let empty =
    { Orion_data.Sparse_features.label = 0.0; features = [||]; values = [||] }
  in
  {
    Orion_data.Sparse_features.samples =
      Dist_array.create_sparse ~name:"samples" ~dims:[| num_samples |]
        ~default:empty;
    num_samples;
    num_features;
    avg_nnz = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Training losses (convergence benchmarking)                          *)
(* ------------------------------------------------------------------ *)

let arr inst name = List.assoc name inst.Orion.App.inst_arrays

(* mean squared error over the observed ratings, V ~ Wᵀ H *)
let mf_loss inst =
  let w = arr inst "W" and h = arr inst "H" in
  let rank = (Dist_array.dims w).(0) in
  let n = ref 0 and acc = ref 0.0 in
  Dist_array.iter
    (fun key v ->
      match v with
      | Value.Vfloat r ->
          let u = key.(0) and i = key.(1) in
          let pred = ref 0.0 in
          for k = 0 to rank - 1 do
            pred :=
              !pred +. (Dist_array.get w [| k; u |] *. Dist_array.get h [| k; i |])
          done;
          let e = r -. !pred in
          acc := !acc +. (e *. e);
          incr n
      | _ -> ())
    inst.Orion.App.inst_iter;
  !acc /. float_of_int (max 1 !n)

(* mean binary cross-entropy under the current weights *)
let slr_loss inst =
  let w = arr inst "w" in
  let n = ref 0 and acc = ref 0.0 in
  Dist_array.iter
    (fun _ v ->
      match v with
      | Value.Vtuple
          [ Value.Vfloat label; Value.Vvec features; Value.Vvec values ] ->
          let margin = ref 0.0 in
          Array.iteri
            (fun k f ->
              (* the script subscripts w 1-based: w[int(idx[k])] *)
              margin :=
                !margin +. (values.(k) *. Dist_array.get w [| int_of_float f - 1 |]))
            features;
          let p = Losses.sigmoid !margin in
          acc := !acc +. Losses.log_loss ~label ~p;
          incr n
      | _ -> ())
    inst.Orion.App.inst_iter;
  !acc /. float_of_int (max 1 !n)

(* negative collapsed joint log-likelihood of the topic assignment
   counts (standard LDA Gibbs diagnostic, constants dropped) *)
let lda_loss inst =
  let doc_topic = arr inst "doc_topic" and word_topic = arr inst "word_topic" in
  let num_docs = (Dist_array.dims doc_topic).(0) in
  let k = (Dist_array.dims doc_topic).(1) in
  let vocab = (Dist_array.dims word_topic).(0) in
  let alpha = 50.0 /. float_of_int k and beta = 0.01 in
  let lg = Losses.lgamma in
  let ll = ref 0.0 in
  for z = 0 to k - 1 do
    let nz = ref 0.0 in
    for w = 0 to vocab - 1 do
      let c = Dist_array.get word_topic [| w; z |] in
      nz := !nz +. c;
      ll := !ll +. lg (c +. beta) -. lg beta
    done;
    ll :=
      !ll
      -. (lg (!nz +. (float_of_int vocab *. beta))
         -. lg (float_of_int vocab *. beta))
  done;
  for d = 0 to num_docs - 1 do
    let nd = ref 0.0 in
    for z = 0 to k - 1 do
      let c = Dist_array.get doc_topic [| d; z |] in
      nd := !nd +. c;
      ll := !ll +. lg (c +. alpha) -. lg alpha
    done;
    ll :=
      !ll
      -. (lg (!nd +. (float_of_int k *. alpha)) -. lg (float_of_int k *. alpha))
  done;
  -. !ll

(* negated total split gain: more gain found = lower loss *)
let gbt_loss inst =
  let split_gain = arr inst "split_gain" in
  let acc = ref 0.0 in
  Dist_array.iter (fun _ v -> acc := !acc -. v) split_gain;
  !acc

(* SLR trains through the w_buf gradient buffer; between passes the
   buffer is applied to w and cleared, turning pass-at-a-time driving
   into batch gradient descent.  (Never called inside a single
   Engine.run, so the equivalence paths are untouched.) *)
let slr_prepare_pass inst =
  let w = arr inst "w" and w_buf = arr inst "w_buf" in
  Dist_array.iter
    (fun key v ->
      if v <> 0.0 then begin
        Dist_array.update w key (fun x -> x +. v);
        Dist_array.set w_buf key 0.0
      end)
    w_buf

(* ------------------------------------------------------------------ *)
(* SGD matrix factorization                                            *)
(* ------------------------------------------------------------------ *)

let mf_make ?(scale = 1.0) ?(records = true) ~num_machines
    ~workers_per_machine () =
  let session =
    Orion.create_session ~num_machines ~workers_per_machine ()
  in
  let data =
    let num_users = scaled scale 24 and num_items = scaled scale 20 in
    match data_dir ratings_dir_env with
    | Some dir -> Orion_store.Loader.ratings ~records dir
    | None when not records -> no_ratings ~num_users ~num_items
    | None ->
        Orion_data.Ratings.generate ~seed:3 ~num_users ~num_items
          ~num_ratings:(scaled scale 240) ()
  in
  let rank = 4 in
  let cell k =
    (0.05 *. float_of_int ((((k.(0) + 1) * 31) + (k.(1) * 7)) mod 11)) -. 0.2
  in
  let w =
    Dist_array.init_dense ~name:"W" ~dims:[| rank; data.num_users |] ~f:cell
  in
  let h =
    Dist_array.init_dense ~name:"H" ~dims:[| rank; data.num_items |] ~f:cell
  in
  Orion.register session data.ratings;
  Orion.register session w;
  Orion.register session h;
  let loop_stmt = parse_loop Sgd_mf.script in
  let key_var, value_var, iter_name, body = loop_parts loop_stmt in
  let make_env () =
    let env = Interp.create_env ~seed:1 () in
    Interp.set_var env "step_size" (Value.Vfloat 0.01);
    bind_extern env w;
    bind_extern env h;
    env
  in
  {
    Orion.App.inst_name = "mf";
    inst_session = session;
    inst_env = make_env ();
    inst_make_env = make_env;
    inst_loop = loop_stmt;
    inst_key_var = key_var;
    inst_value_var = value_var;
    inst_body = body;
    inst_iter = Dist_array.float_view ~name:iter_name data.ratings;
    inst_iter_name = iter_name;
    inst_outputs = [ ("W", w); ("H", h) ];
    inst_arrays = [ ("W", w); ("H", h) ];
    inst_buffered = [];
  }

let mf_register_meta session =
  Orion.register_meta session ~name:"ratings"
    ~dims:[| 480_189; 17_770 |]
    ~count:100_480_507 ();
  Orion.register_meta session ~name:"W" ~dims:[| 40; 480_189 |] ();
  Orion.register_meta session ~name:"H" ~dims:[| 40; 17_770 |] ()

(* ------------------------------------------------------------------ *)
(* Sparse logistic regression                                          *)
(* ------------------------------------------------------------------ *)

let slr_make ?(scale = 1.0) ?(records = true) ~num_machines
    ~workers_per_machine () =
  let session =
    Orion.create_session ~num_machines ~workers_per_machine ()
  in
  let data =
    let num_samples = scaled scale 120 and num_features = 30 in
    match data_dir features_dir_env with
    | Some dir -> Orion_store.Loader.features ~records dir
    | None when not records -> no_samples ~num_samples ~num_features
    | None ->
        Orion_data.Sparse_features.generate ~seed:7 ~num_samples
          ~num_features ~nnz_per_sample:6 ()
  in
  let w =
    Dist_array.init_dense ~name:"w"
      ~dims:[| data.num_features |]
      ~f:(fun k -> 0.01 *. float_of_int ((k.(0) mod 7) - 3))
  in
  let w_buf =
    Dist_array.fill_dense ~name:"w_buf" ~dims:[| data.num_features |] 0.0
  in
  Orion.register_iterable session data.samples
    ~to_value:Orion_data.Sparse_features.sample_to_value;
  Orion.register session w;
  Orion.register session ~buffered:true w_buf;
  let loop_stmt = parse_loop Slr.script in
  let key_var, value_var, iter_name, body = loop_parts loop_stmt in
  let make_env () =
    let env = Interp.create_env ~seed:1 () in
    Interp.set_var env "step_size" (Value.Vfloat 0.1);
    bind_extern env w;
    bind_extern env w_buf;
    env
  in
  {
    Orion.App.inst_name = "slr";
    inst_session = session;
    inst_env = make_env ();
    inst_make_env = make_env;
    inst_loop = loop_stmt;
    inst_key_var = key_var;
    inst_value_var = value_var;
    inst_body = body;
    inst_iter =
      Dist_array.map ~name:iter_name
        ~f:Orion_data.Sparse_features.sample_to_value data.samples;
    inst_iter_name = iter_name;
    inst_outputs = [ ("w_buf", w_buf) ];
    inst_arrays = [ ("w", w); ("w_buf", w_buf) ];
    inst_buffered = [ "w_buf" ];
  }

(* SLR over length-skewed data: identical script, losses, and array
   shapes to "slr", but per-sample nnz follows a front-loaded power law
   — so the histogram-balanced (count-even) space partition is badly
   work-imbalanced and [orion explain --measured] has real skew to
   measure.  A separate registered app (not a flag on "slr") so
   distributed workers materialize the identical dataset by name. *)
let slrskew_make ?(scale = 1.0) ?(records = true) ~num_machines
    ~workers_per_machine () =
  let session =
    Orion.create_session ~num_machines ~workers_per_machine ()
  in
  let data =
    let num_samples = scaled scale 120 and num_features = 96 in
    if not records then no_samples ~num_samples ~num_features
    else
      (* max_nnz well above the floor so per-sample compute is dominated
         by the nnz-proportional part, not fixed dispatch overhead —
         otherwise the head:tail work ratio flattens and a measured
         re-balance has nothing to win *)
      Orion_data.Sparse_features.generate_skewed ~seed:7 ~num_samples
        ~num_features ~max_nnz:80 ()
  in
  let w =
    Dist_array.init_dense ~name:"w"
      ~dims:[| data.num_features |]
      ~f:(fun k -> 0.01 *. float_of_int ((k.(0) mod 7) - 3))
  in
  let w_buf =
    Dist_array.fill_dense ~name:"w_buf" ~dims:[| data.num_features |] 0.0
  in
  Orion.register_iterable session data.samples
    ~to_value:Orion_data.Sparse_features.sample_to_value;
  Orion.register session w;
  Orion.register session ~buffered:true w_buf;
  let loop_stmt = parse_loop Slr.script in
  let key_var, value_var, iter_name, body = loop_parts loop_stmt in
  let make_env () =
    let env = Interp.create_env ~seed:1 () in
    Interp.set_var env "step_size" (Value.Vfloat 0.1);
    bind_extern env w;
    bind_extern env w_buf;
    env
  in
  {
    Orion.App.inst_name = "slrskew";
    inst_session = session;
    inst_env = make_env ();
    inst_make_env = make_env;
    inst_loop = loop_stmt;
    inst_key_var = key_var;
    inst_value_var = value_var;
    inst_body = body;
    inst_iter =
      Dist_array.map ~name:iter_name
        ~f:Orion_data.Sparse_features.sample_to_value data.samples;
    inst_iter_name = iter_name;
    inst_outputs = [ ("w_buf", w_buf) ];
    inst_arrays = [ ("w", w); ("w_buf", w_buf) ];
    inst_buffered = [ "w_buf" ];
  }

let slr_register_meta session =
  Orion.register_meta session ~name:"samples"
    ~dims:[| 20_000_000 |]
    ~count:20_000_000 ();
  Orion.register_meta session ~name:"w" ~dims:[| 20_216_830 |] ();
  Orion.register_meta session ~name:"w_buf"
    ~dims:[| 20_216_830 |]
    ~buffered:true ()

(* ------------------------------------------------------------------ *)
(* LDA Gibbs sampling                                                  *)
(* ------------------------------------------------------------------ *)

(* The [sample_topic] host builtin is deterministic and
   order-independent across dependence-respecting serializations: the
   live doc/word count rows it reads are each written only by same-doc /
   same-word iterations (which every valid serialization orders
   identically), the topic totals come from a pass-start snapshot, and
   the uniform draw is a hash of the token key — never the shared RNG,
   whose state would depend on execution order. *)
let lda_make ?(scale = 1.0) ?records:_ ~num_machines ~workers_per_machine ()
    =
  let session =
    Orion.create_session ~num_machines ~workers_per_machine ()
  in
  (* loaded even for [~records:false]: [sample_topic] divides by the
     corpus-wide topic totals, summed over every token *)
  let corpus =
    match data_dir corpus_dir_env with
    | Some dir -> Orion_store.Loader.corpus dir
    | None ->
        Orion_data.Corpus.generate ~seed:5
          ~num_docs:(scaled scale 18)
          ~vocab_size:15 ~avg_doc_len:20 ()
  in
  let k = 5 in
  let alpha = 50.0 /. float_of_int k and beta = 0.01 in
  let doc_topic =
    Dist_array.fill_dense ~name:"doc_topic" ~dims:[| corpus.num_docs; k |] 0.0
  in
  let word_topic =
    Dist_array.fill_dense ~name:"word_topic"
      ~dims:[| corpus.vocab_size; k |]
      0.0
  in
  let totals_buf = Dist_array.fill_dense ~name:"totals_buf" ~dims:[| k |] 0.0 in
  (* every token's key is pre-populated here, so parallel execution only
     ever replaces existing sparse keys (see Dist_array.enter_parallel) *)
  let token_topic =
    Dist_array.create_sparse ~name:"token_topic"
      ~dims:[| corpus.num_docs; corpus.vocab_size |]
      ~default:0.0
  in
  let totals0 = Array.make k 0.0 in
  Dist_array.iter
    (fun key cnt ->
      let d = key.(0) and w = key.(1) in
      let z = mix ((d * corpus.vocab_size) + w) mod k in
      (* token_topic stores the 1-based topic, matching the script's
         1-based subscripting of doc_topic / word_topic columns *)
      Dist_array.set token_topic key (float_of_int (z + 1));
      Dist_array.update doc_topic [| d; z |] (fun v -> v +. cnt);
      Dist_array.update word_topic [| w; z |] (fun v -> v +. cnt);
      totals0.(z) <- totals0.(z) +. cnt)
    corpus.tokens;
  Orion.register session corpus.tokens;
  Orion.register session doc_topic;
  Orion.register session word_topic;
  Orion.register session token_topic;
  Orion.register session ~buffered:true totals_buf;
  let vbeta = float_of_int corpus.vocab_size *. beta in
  let sample_topic name (args : Value.t list) =
    match (name, args) with
    | "sample_topic", [ dv; wv ] ->
        (* 1-based doc / word indices, as [key[...]] evaluates *)
        let d = Value.to_int dv - 1 and w = Value.to_int wv - 1 in
        let cumulative = Array.make k 0.0 in
        let acc = ref 0.0 in
        for z = 0 to k - 1 do
          let dt = Dist_array.get doc_topic [| d; z |] in
          let wt = Dist_array.get word_topic [| w; z |] in
          let p = (dt +. alpha) *. (wt +. beta) /. (totals0.(z) +. vbeta) in
          acc := !acc +. p;
          cumulative.(z) <- !acc
        done;
        let u =
          float_of_int
            (mix (((d * corpus.vocab_size) + w) lxor 0x2545F49) mod 0x10000)
          /. 65536.0 *. !acc
        in
        let z = ref 0 in
        while !z < k - 1 && cumulative.(!z) < u do
          incr z
        done;
        Some (Value.Vint (!z + 1))
    | _ -> None
  in
  let loop_stmt = parse_loop Lda.script in
  let key_var, value_var, iter_name, body = loop_parts loop_stmt in
  let make_env () =
    let env = Interp.create_env ~seed:1 ~host_call:sample_topic () in
    bind_extern env doc_topic;
    bind_extern env word_topic;
    bind_extern env token_topic;
    bind_extern env totals_buf;
    env
  in
  {
    Orion.App.inst_name = "lda";
    inst_session = session;
    inst_env = make_env ();
    inst_make_env = make_env;
    inst_loop = loop_stmt;
    inst_key_var = key_var;
    inst_value_var = value_var;
    inst_body = body;
    inst_iter = Dist_array.float_view ~name:iter_name corpus.tokens;
    inst_iter_name = iter_name;
    inst_outputs =
      [
        ("doc_topic", doc_topic);
        ("word_topic", word_topic);
        ("token_topic", token_topic);
        ("totals_buf", totals_buf);
      ];
    inst_arrays =
      [
        ("doc_topic", doc_topic);
        ("word_topic", word_topic);
        ("token_topic", token_topic);
        ("totals_buf", totals_buf);
      ];
    inst_buffered = [ "totals_buf" ];
  }

let lda_register_meta session =
  Orion.register_meta session ~name:"tokens"
    ~dims:[| 299_752; 101_636 |]
    ~count:99_542_125 ();
  Orion.register_meta session ~name:"doc_topic" ~dims:[| 299_752; 1000 |] ();
  Orion.register_meta session ~name:"word_topic" ~dims:[| 101_636; 1000 |] ();
  Orion.register_meta session ~name:"token_topic"
    ~dims:[| 299_752; 101_636 |]
    ();
  Orion.register_meta session ~name:"totals_buf" ~dims:[| 1000 |]
    ~buffered:true ()

(* ------------------------------------------------------------------ *)
(* GBT split finding                                                   *)
(* ------------------------------------------------------------------ *)

let gbt_make ?(scale = 1.0) ?records:_ ~num_machines ~workers_per_machine ()
    =
  let session =
    Orion.create_session ~num_machines ~workers_per_machine ()
  in
  let num_features = 10 in
  (* generated even for [~records:false]: [find_best_split] scans every
     sample of the feature it is given *)
  let data =
    Gbt.synthetic ~seed:31 ~num_samples:(scaled scale 80) ~num_features ()
  in
  let n = Array.length data.Gbt.labels in
  let pos = Array.fold_left ( +. ) 0.0 data.Gbt.labels in
  let p0 = Float.max 1e-6 (Float.min (1.0 -. 1e-6) (pos /. float_of_int n)) in
  let grads = Array.map (fun label -> p0 -. label) data.Gbt.labels in
  let hess = Array.make n (Float.max 1e-9 (p0 *. (1.0 -. p0))) in
  let edges = Gbt.feature_edges data ~num_bins:8 in
  let members = List.init n Fun.id in
  let feature_index =
    Dist_array.fill_dense ~name:"feature_index" ~dims:[| num_features |] 0.0
  in
  let split_gain =
    Dist_array.fill_dense ~name:"split_gain" ~dims:[| num_features |] 0.0
  in
  Orion.register session feature_index;
  Orion.register session split_gain;
  let find_best_split name (args : Value.t list) =
    match (name, args) with
    | "find_best_split", [ fv ] ->
        let f = Value.to_int fv - 1 in
        let gain =
          match
            Gbt.best_split_for_feature data ~edges ~grads ~hess ~members ~f
              ~lambda:1.0 ~min_child_weight:1.0
          with
          | Some c -> c.Gbt.gain
          | None -> 0.0
        in
        Some (Value.Vfloat gain)
    | _ -> None
  in
  let loop_stmt = parse_loop Gbt.script in
  let key_var, value_var, iter_name, body = loop_parts loop_stmt in
  let make_env () =
    let env = Interp.create_env ~seed:1 ~host_call:find_best_split () in
    bind_extern env split_gain;
    env
  in
  {
    Orion.App.inst_name = "gbt";
    inst_session = session;
    inst_env = make_env ();
    inst_make_env = make_env;
    inst_loop = loop_stmt;
    inst_key_var = key_var;
    inst_value_var = value_var;
    inst_body = body;
    inst_iter = Dist_array.float_view ~name:iter_name feature_index;
    inst_iter_name = iter_name;
    inst_outputs = [ ("split_gain", split_gain) ];
    inst_arrays = [ ("feature_index", feature_index); ("split_gain", split_gain) ];
    inst_buffered = [];
  }

let gbt_register_meta session =
  Orion.register_meta session ~name:"feature_index" ~dims:[| 90 |] ~count:90 ();
  Orion.register_meta session ~name:"split_gain" ~dims:[| 90 |] ()

(* ------------------------------------------------------------------ *)

let () =
  List.iter Orion.App.register
    [
      {
        Orion.App.app_name = "mf";
        app_description = "SGD matrix factorization (2D unordered)";
        app_script = Sgd_mf.script;
        app_tolerance = None;
        app_make = mf_make;
        app_register_meta = mf_register_meta;
        app_loss = Some mf_loss;
        app_prepare_pass = None;
      };
      {
        Orion.App.app_name = "slr";
        app_description =
          "Sparse logistic regression (1D + buffers + prefetch)";
        app_script = Slr.script;
        (* buffered FP accumulation is order-sensitive in the last bits *)
        app_tolerance = Some 1e-9;
        app_make = slr_make;
        app_register_meta = slr_register_meta;
        app_loss = Some slr_loss;
        app_prepare_pass = Some slr_prepare_pass;
      };
      {
        Orion.App.app_name = "slrskew";
        app_description =
          "Sparse logistic regression, length-skewed samples (measured \
           explain target)";
        app_script = Slr.script;
        app_tolerance = Some 1e-9;
        app_make = slrskew_make;
        app_register_meta = slr_register_meta;
        app_loss = Some slr_loss;
        app_prepare_pass = Some slr_prepare_pass;
      };
      {
        Orion.App.app_name = "lda";
        app_description =
          "Topic modeling, collapsed Gibbs (2D unordered + buffer)";
        app_script = Lda.script;
        (* Gibbs counts are integer-valued floats: addition is exact *)
        app_tolerance = None;
        app_make = lda_make;
        app_register_meta = lda_register_meta;
        app_loss = Some lda_loss;
        app_prepare_pass = None;
      };
      {
        Orion.App.app_name = "gbt";
        app_description = "Gradient boosted trees (1D over features)";
        app_script = Gbt.script;
        app_tolerance = None;
        app_make = gbt_make;
        app_register_meta = gbt_register_meta;
        app_loss = Some gbt_loss;
        app_prepare_pass = None;
      };
    ]

(** Build a fresh deterministic instance of app [name], or [None] if no
    such app is registered.  Distributed workers build theirs with
    [~records:false], from the app name and shapes alone: every
    [app_make] is deterministic (fixed seeds), so master and all ranks
    materialize identical initial DistArray state and host builtins
    (which are closures and cannot travel over the wire), while the
    entries each rank runs arrive in its schedule row. *)
let materialize ?records name ~scale ~num_machines ~workers_per_machine =
  match Orion.App.find name with
  | None -> None
  | Some app ->
      Some
        (app.Orion.App.app_make ~scale ?records ~num_machines
           ~workers_per_machine ())

(* Installing the distributed master here ties the knot: Orion.Engine
   dispatches [`Distributed] through a hook so the core library stays
   free of socket/process dependencies, and any program that links the
   apps (CLI, tests, benches) gets the runner for free.  Its workers
   are [orion-worker] processes, which build their instances through
   [materialize ~records:false]. *)
let () = Orion_net.Dist_master.install ()

(** Force this module's initializer (and thus app registration and the
    distributed-runner installation) to run.  Call before the first
    {!Orion.App.find} in any executable that only links [orion_apps]. *)
let ensure () = ()
