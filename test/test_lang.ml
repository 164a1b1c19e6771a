(* Tests for the OrionScript language: lexer, parser, pretty-printer
   round-trips, and the interpreter. *)

open Orion_lang

let parse = Parser.parse_program
let parse_e = Parser.parse_expression

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = List.map (fun (t : Lexer.located) -> t.tok) (Lexer.tokenize src)

let test_lex_basic () =
  Alcotest.(check int) "token count" 6
    (List.length (toks "x = 1 + 2"));
  (* x = 1 + 2 -> IDENT EQ INT PLUS INT EOF *)
  match toks "x = 1 + 2" with
  | [ IDENT "x"; EQ; INT 1; PLUS; INT 2; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_floats () =
  (match toks "1.5 2e3 0.25" with
  | [ FLOAT a; FLOAT b; FLOAT c; EOF ] ->
      Alcotest.(check (float 0.0)) "1.5" 1.5 a;
      Alcotest.(check (float 0.0)) "2e3" 2000.0 b;
      Alcotest.(check (float 0.0)) "0.25" 0.25 c
  | _ -> Alcotest.fail "floats");
  match toks "1:3" with
  | [ INT 1; COLON; INT 3; EOF ] -> ()
  | _ -> Alcotest.fail "range is not a float"

let test_lex_comments () =
  match toks "x = 1 # a comment\ny = 2" with
  | [ IDENT "x"; EQ; INT 1; NEWLINE; IDENT "y"; EQ; INT 2; EOF ] -> ()
  | _ -> Alcotest.fail "comments"

let test_lex_operators () =
  match toks "a += b .* c .= d" with
  | [ IDENT "a"; PLUS_EQ; IDENT "b"; STAR; IDENT "c"; EQ; IDENT "d"; EOF ] ->
      ()
  | _ -> Alcotest.fail "operators"

let test_lex_macro () =
  match toks "@parallel_for ordered for" with
  | [ KW_PARALLEL_FOR; KW_ORDERED; KW_FOR; EOF ] -> ()
  | _ -> Alcotest.fail "macro"

let test_lex_string_escapes () =
  match toks {|"a\nb"|} with
  | [ STRING "a\nb"; EOF ] -> ()
  | _ -> Alcotest.fail "string escapes"

let test_lex_error_pos () =
  try
    ignore (Lexer.tokenize "x = $");
    Alcotest.fail "expected lex error"
  with Lexer.Lex_error (_, pos) ->
    Alcotest.(check int) "line" 1 pos.line;
    Alcotest.(check int) "col" 5 pos.col

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_precedence () =
  let e = parse_e "1 + 2 * 3" in
  Alcotest.(check bool) "mul binds tighter" true
    (e = Ast.(Binop (Add, Int_lit 1, Binop (Mul, Int_lit 2, Int_lit 3))))

let test_parse_power_right_assoc () =
  let e = parse_e "2 ^ 3 ^ 2" in
  Alcotest.(check bool) "right assoc" true
    (e
    = Ast.(
        Binop (Pow, Int_lit 2, Binop (Pow, Int_lit 3, Int_lit 2))))

let test_parse_unary_precedence () =
  let e = parse_e "-x + y" in
  Alcotest.(check bool) "neg binds tighter than +" true
    (e = Ast.(Binop (Add, Unop (Neg, Var "x"), Var "y")))

let test_parse_comparison_chain () =
  let e = parse_e "a + 1 < b * 2 && c > 3" in
  match e with
  | Ast.Binop (And, Binop (Lt, _, _), Binop (Gt, _, _)) -> ()
  | _ -> Alcotest.fail "precedence of comparisons and &&"

let test_parse_subscripts () =
  let e = parse_e "W[:, key[1], 2:5]" in
  match e with
  | Ast.Index
      ( Var "W",
        [
          Sub_all;
          Sub_expr (Index (Var "key", [ Sub_expr (Int_lit 1) ]));
          Sub_range (Int_lit 2, Int_lit 5);
        ] ) ->
      ()
  | _ -> Alcotest.fail "subscripts"

let test_parse_call_and_tuple () =
  (match parse_e "dot(a, b)" with
  | Ast.Call ("dot", [ Var "a"; Var "b" ]) -> ()
  | _ -> Alcotest.fail "call");
  match parse_e "(a, b, 3)" with
  | Ast.Tuple [ Var "a"; Var "b"; Int_lit 3 ] -> ()
  | _ -> Alcotest.fail "tuple"

let test_parse_if_elseif () =
  let p =
    parse
      "if a > 0\n  x = 1\nelseif a < 0\n  x = 2\nelse\n  x = 3\nend"
  in
  match p with
  | [ { Ast.sk = Ast.If (_, [ _ ], [ { Ast.sk = Ast.If (_, [ _ ], [ _ ]); _ } ]); _ } ]
    ->
      ()
  | _ -> Alcotest.fail "elseif chain"

let test_parse_for_range () =
  match parse "for i = 1:10\n  s += i\nend" with
  | [
   { Ast.sk = Ast.For { kind = Range_loop { var = "i"; _ }; parallel = None; _ }; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "range loop"

let test_parse_parallel_for () =
  match parse "@parallel_for for (k, v) in data\n  x = v\nend" with
  | [
   {
     Ast.sk =
       Ast.For
         {
           kind = Each_loop { key = "k"; value = "v"; arr = "data" };
           parallel = Some { ordered = false };
           _;
         };
     _;
   };
  ] ->
      ()
  | _ -> Alcotest.fail "parallel for"

let test_parse_parallel_for_ordered () =
  match parse "@parallel_for ordered for (k, v) in data\nend" with
  | [ { Ast.sk = Ast.For { parallel = Some { ordered = true }; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "ordered"

let test_parse_op_assign_index () =
  match parse "A[i] += 1" with
  | [
   {
     Ast.sk = Ast.Op_assign (Add, Lindex ("A", [ Sub_expr (Var "i") ]), Int_lit 1);
     _;
   };
  ] ->
      ()
  | _ -> Alcotest.fail "op-assign on index"

let test_parse_error_missing_end () =
  try
    ignore (parse "for i = 1:3\n x = i\n");
    Alcotest.fail "expected parse error"
  with Parser.Parse_error (_, _) -> ()

let test_parse_broadcast_assign () =
  (* Julia's .= is accepted as plain assignment *)
  match parse "W[:, k] .= W_row - g * s" with
  | [ { Ast.sk = Ast.Assign (Lindex ("W", _), _); _ } ] -> ()
  | _ -> Alcotest.fail "broadcast assign"

(* ------------------------------------------------------------------ *)
(* Pretty-printer round-trip                                           *)
(* ------------------------------------------------------------------ *)

let roundtrip_program src =
  let p1 = parse src in
  let printed = Pretty.program_to_string p1 in
  let p2 = parse printed in
  Alcotest.(check bool)
    (Printf.sprintf "roundtrip of %S via %S" src printed)
    true (Ast.equal_program p1 p2)

let test_pretty_roundtrip_samples () =
  List.iter roundtrip_program
    [
      "x = 1 + 2 * 3";
      "y = -x ^ 2";
      "if a > 0\n  b = 1\nelse\n  b = 2\nend";
      "for i = 1:10\n  s += i * i\nend";
      "@parallel_for for (key, rv) in ratings\n\
       W_row = W[:, key[1]]\n\
       W[:, key[1]] = W_row - g * s\n\
       end";
      "while x < 10\n  x = x + 1\n  if x == 5\n    break\n  end\nend";
      "z = dot(a[1:3], b[2:4]) + abs2(c)";
      "t = (a, b, a + b)";
    ]

(* random expression generator for the qcheck round-trip *)
let gen_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Ast.Int_lit i) (int_range 0 100);
                map (fun f -> Ast.Float_lit (float_of_int f /. 4.0))
                  (int_range 0 100);
                oneofl [ Ast.Var "x"; Ast.Var "y"; Ast.Var "key" ];
                return (Ast.Bool_lit true);
              ]
          else
            oneof
              [
                map3
                  (fun op a b -> Ast.Binop (op, a, b))
                  (oneofl
                     Ast.[ Add; Sub; Mul; Div; Pow; Lt; Le; Eq; And; Or ])
                  (self (n / 2))
                  (self (n / 2));
                map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
                map
                  (fun a -> Ast.Index (Ast.Var "A", [ Ast.Sub_expr a ]))
                  (self (n - 1));
                map2
                  (fun a b -> Ast.Call ("f", [ a; b ]))
                  (self (n / 2))
                  (self (n / 2));
              ])
        n)

let arb_expr = QCheck.make ~print:Pretty.expr_to_string gen_expr

let test_expr_roundtrip_qcheck () =
  QCheck.Test.make ~count:500 ~name:"pretty-print/parse expr roundtrip"
    arb_expr (fun e ->
      let printed = Pretty.expr_to_string e in
      Ast.equal_expr e (Parser.parse_expression printed))

(* random whole-program generator: statements over the constructs the
   pretty-printer and parser both support, with loop-only statements
   (break/continue) confined to loop bodies *)
let gen_program : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let mk sk = Ast.mk sk in
  let var = oneofl [ "x"; "y"; "z"; "acc" ] in
  let lvalue =
    oneof
      [
        map (fun v -> Ast.Lvar v) var;
        map (fun e -> Ast.Lindex ("A", [ Ast.Sub_expr e ])) gen_expr;
      ]
  in
  let bound =
    oneof
      [
        map (fun i -> Ast.Int_lit i) (int_range 1 20);
        map (fun v -> Ast.Var v) var;
      ]
  in
  let rec stmt ~in_loop depth =
    let leaf =
      [
        map2 (fun l e -> mk (Ast.Assign (l, e))) lvalue gen_expr;
        map3
          (fun op l e -> mk (Ast.Op_assign (op, l, e)))
          (oneofl Ast.[ Add; Sub; Mul; Div ])
          lvalue gen_expr;
      ]
    in
    let leaf = if in_loop then return (mk Ast.Break) :: return (mk Ast.Continue) :: leaf else leaf in
    if depth <= 0 then oneof leaf
    else
      let block ~in_loop = list_size (int_range 1 3) (stmt ~in_loop (depth - 1)) in
      oneof
        (leaf
        @ [
            map3
              (fun c t e -> mk (Ast.If (c, t, e)))
              gen_expr (block ~in_loop)
              (oneof [ return []; block ~in_loop ]);
            map3
              (fun lo hi body ->
                mk
                  (Ast.For
                     {
                       kind = Ast.Range_loop { var = "i"; lo; hi };
                       body;
                       parallel = None;
                     }))
              bound bound (block ~in_loop:true);
            map2
              (fun c body -> mk (Ast.While (c, body)))
              gen_expr (block ~in_loop:true);
            map2
              (fun ordered body ->
                mk
                  (Ast.For
                     {
                       kind =
                         Ast.Each_loop
                           { key = "key"; value = "v"; arr = "ratings" };
                       body;
                       parallel = Some { Ast.ordered };
                     }))
              bool (block ~in_loop:true);
          ])
  in
  list_size (int_range 1 5) (stmt ~in_loop:false 2)

(* lexer -> parser -> pretty-printer -> parser round-trip over seeded
   random programs: the printed form must re-parse to an equal AST *)
let test_program_roundtrip_seeded () =
  let rand = Random.State.make [| 0xC0FFEE |] in
  for _ = 1 to 200 do
    let p = QCheck.Gen.generate1 ~rand gen_program in
    let printed = Pretty.program_to_string p in
    match parse printed with
    | p2 ->
        if not (Ast.equal_program p p2) then
          Alcotest.failf "program roundtrip changed the AST for:\n%s" printed
    | exception exn ->
        Alcotest.failf "printed program failed to parse (%s):\n%s"
          (Printexc.to_string exn) printed
  done

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let run ?host_call ?(bindings = []) src =
  let env = Interp.create_env ?host_call () in
  List.iter (fun (k, v) -> Interp.set_var env k v) bindings;
  Interp.run_program env (parse src);
  env

let check_float env name expected =
  match Interp.get_var env name with
  | Value.Vfloat f -> Alcotest.(check (float 1e-9)) name expected f
  | Value.Vint n -> Alcotest.(check (float 1e-9)) name expected (float_of_int n)
  | v -> Alcotest.fail (name ^ " has type " ^ Value.type_name v)

let test_interp_arith () =
  let env = run "x = 1 + 2 * 3\ny = x / 2\nz = 2.0 ^ 3 + float(x % 5)" in
  check_float env "x" 7.0;
  check_float env "y" 3.0;
  (* int division *)
  check_float env "z" 10.0

let test_interp_loops () =
  let env = run "s = 0\nfor i = 1:10\n  s += i\nend" in
  check_float env "s" 55.0

let test_interp_while_break () =
  let env =
    run "x = 0\nwhile true\n  x += 1\n  if x >= 7\n    break\n  end\nend"
  in
  check_float env "x" 7.0

let test_interp_continue () =
  let env =
    run "s = 0\nfor i = 1:10\n  if i % 2 == 0\n    continue\n  end\n  s += i\nend"
  in
  check_float env "s" 25.0

let test_interp_vectors () =
  let env =
    run
      "v = zeros(3)\nv[1] = 1.0\nv[2] = 2.0\nv[3] = 3.0\n\
       w = v * 2.0\nd = dot(v, w)\ns = sum(v[1:2])"
  in
  check_float env "d" 28.0;
  check_float env "s" 3.0

let test_interp_vector_ops () =
  let env = run "a = fill(2.0, 4)\nb = fill(3.0, 4)\nc = a * b + a\nn = norm(fill(3.0, 1))" in
  (match Interp.get_var env "c" with
  | Value.Vvec v ->
      Alcotest.(check (float 1e-9)) "elementwise" 8.0 v.(0)
  | _ -> Alcotest.fail "c not vec");
  check_float env "n" 3.0

let test_interp_builtins () =
  let env =
    run "a = abs(-3)\nb = abs2(2.0)\nc = sigmoid(0.0)\nd = max(1.0, 2.0)\ne = exp(0.0)"
  in
  check_float env "a" 3.0;
  check_float env "b" 4.0;
  check_float env "c" 0.5;
  check_float env "d" 2.0;
  check_float env "e" 1.0

let test_interp_rng_deterministic () =
  let env1 = run "x = rand()\ny = randn()" in
  let env2 = run "x = rand()\ny = randn()" in
  let get e n = Value.to_float (Interp.get_var e n) in
  Alcotest.(check (float 0.0)) "rand deterministic" (get env1 "x") (get env2 "x");
  Alcotest.(check (float 0.0))
    "randn deterministic" (get env1 "y") (get env2 "y");
  let x = get env1 "x" in
  Alcotest.(check bool) "in range" true (x >= 0.0 && x < 1.0)

let test_interp_host_call () =
  let calls = ref [] in
  let host_call name args =
    if name = "observe" then (
      calls := args :: !calls;
      Some Value.Vunit)
    else None
  in
  let _ = run ~host_call "observe(1, 2.0)" in
  Alcotest.(check int) "host called" 1 (List.length !calls)

let test_interp_extern () =
  (* a tiny dense 2x2 "distarray" backed by a float array *)
  let data = [| 1.0; 2.0; 3.0; 4.0 |] in
  let get subs =
    match subs with
    | [| Value.Cpoint i; Value.Cpoint j |] -> Value.Vfloat data.((i * 2) + j)
    | _ -> Alcotest.fail "bad subs"
  in
  let set subs v =
    match subs with
    | [| Value.Cpoint i; Value.Cpoint j |] ->
        data.((i * 2) + j) <- Value.to_float v
    | _ -> Alcotest.fail "bad subs"
  in
  let iter f =
    for i = 0 to 1 do
      for j = 0 to 1 do
        f [| i; j |] (Value.Vfloat data.((i * 2) + j))
      done
    done
  in
  let ex =
    Value.
      {
        ex_name = "A";
        ex_dims = [| 2; 2 |];
        ex_get = get;
        ex_set = set;
        ex_iter = iter;
        ex_count = (fun () -> 4);
        ex_fast = None;
      }
  in
  let env =
    run
      ~bindings:[ ("A", Value.Vextern ex) ]
      "s = 0.0\nfor (k, v) in A\n  s += v\n  A[k[1], k[2]] = v * 10.0\nend"
  in
  check_float env "s" 10.0;
  Alcotest.(check (float 0.0)) "written back" 40.0 data.(3)

let test_interp_error_undefined () =
  try
    ignore (run "x = undefined_var + 1");
    Alcotest.fail "expected runtime error"
  with Interp.Runtime_error _ -> ()

let test_interp_division_by_zero () =
  try
    ignore (run "x = 1 / 0");
    Alcotest.fail "expected error"
  with Interp.Runtime_error _ -> ()

let test_interp_short_circuit () =
  (* the right operand must not be evaluated: 1/0 would raise *)
  let env = run "ok = false && 1 / 0 == 0\nok2 = true || 1 / 0 == 0" in
  (match Interp.get_var env "ok" with
  | Value.Vbool false -> ()
  | _ -> Alcotest.fail "&& short circuit");
  match Interp.get_var env "ok2" with
  | Value.Vbool true -> ()
  | _ -> Alcotest.fail "|| short circuit"

(* the full SGD MF body interpreted over a toy problem: the training
   loss must decrease *)
let test_interp_mf_epoch () =
  (* 2x2 ratings, rank 2 *)
  let ratings = [| [| 5.0; 1.0 |]; [| 1.0; 5.0 |] |] in
  let w = Array.make_matrix 2 2 0.1 in
  let h = Array.make_matrix 2 2 0.1 in
  w.(0).(0) <- 0.3;
  h.(1).(1) <- 0.2;
  let vec_of col m = Array.init 2 (fun r -> m.(r).(col)) in
  let set_col col m v = Array.iteri (fun r x -> m.(r).(col) <- x) v in
  let mk_extern name arr2 =
    Value.
      {
        ex_name = name;
        ex_dims = [| 2; 2 |];
        ex_get =
          (fun subs ->
            match subs with
            | [| Call_dim; Cpoint j |] -> Vvec (vec_of j arr2)
            | [| Cpoint i; Cpoint j |] -> Vfloat arr2.(i).(j)
            | _ -> Alcotest.fail "subs");
        ex_set =
          (fun subs v ->
            match subs with
            | [| Call_dim; Cpoint j |] -> set_col j arr2 (Value.to_vec v)
            | _ -> Alcotest.fail "subs");
        ex_iter =
          (fun f ->
            for i = 0 to 1 do
              for j = 0 to 1 do
                f [| i; j |] (Vfloat arr2.(i).(j))
              done
            done);
        ex_count = (fun () -> 4);
        ex_fast = None;
      }
  in
  let ratings_ex =
    Value.
      {
        ex_name = "ratings";
        ex_dims = [| 2; 2 |];
        ex_get = (fun _ -> Alcotest.fail "no get");
        ex_set = (fun _ _ -> Alcotest.fail "no set");
        ex_iter =
          (fun f ->
            for i = 0 to 1 do
              for j = 0 to 1 do
                f [| i; j |] (Vfloat ratings.(i).(j))
              done
            done);
        ex_count = (fun () -> 4);
        ex_fast = None;
      }
  in
  let loss () =
    let total = ref 0.0 in
    for i = 0 to 1 do
      for j = 0 to 1 do
        let pred = ref 0.0 in
        for k = 0 to 1 do
          pred := !pred +. (w.(k).(i) *. h.(k).(j))
        done;
        total := !total +. ((ratings.(i).(j) -. !pred) ** 2.0)
      done
    done;
    !total
  in
  let before = loss () in
  let body =
    "for iter = 1:30\n\
     for (key, rv) in ratings\n\
     W_row = W[:, key[1]]\n\
     H_row = H[:, key[2]]\n\
     pred = dot(W_row, H_row)\n\
     diff = rv - pred\n\
     W_grad = -2.0 * diff * H_row\n\
     H_grad = -2.0 * diff * W_row\n\
     W[:, key[1]] = W_row - W_grad * step_size\n\
     H[:, key[2]] = H_row - H_grad * step_size\n\
     end\n\
     end"
  in
  let _ =
    run
      ~bindings:
        [
          ("ratings", Value.Vextern ratings_ex);
          ("W", Value.Vextern (mk_extern "W" w));
          ("H", Value.Vextern (mk_extern "H" h));
          ("step_size", Value.Vfloat 0.05);
        ]
      body
  in
  let after = loss () in
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%g -> %g)" before after)
    true
    (after < before /. 4.0)

(* more interpreter edge cases *)

let test_interp_tuple_and_index_values () =
  let env =
    run
      ~bindings:[ ("k", Value.Vindex [| 4; 9 |]) ]
      "t = (1, 2.5, true)\na = t[2]\ni = k[1]\nj = k[2]"
  in
  check_float env "a" 2.5;
  (* Vindex subscripts are 1-based on the surface *)
  check_float env "i" 5.0;
  check_float env "j" 10.0

let test_interp_mod_semantics () =
  (* mathematical (non-negative) modulo on ints *)
  let env = run "a = -7 % 3\nb = 7 % 3\nc = 7.5 % 2.0" in
  check_float env "a" 2.0;
  check_float env "b" 1.0;
  check_float env "c" 1.5

let test_interp_int_pow () =
  let env = run "a = 2 ^ 10\nb = 2.0 ^ -1.0" in
  check_float env "a" 1024.0;
  check_float env "b" 0.5

let test_interp_string_compare () =
  let env = run {|eq = "abc" == "abc"
ne = "a" != "b"
lt = "a" < "b"|} in
  List.iter
    (fun v ->
      match Interp.get_var env v with
      | Value.Vbool true -> ()
      | _ -> Alcotest.fail (v ^ " not true"))
    [ "eq"; "ne"; "lt" ]

let test_interp_vector_length_mismatch () =
  try
    ignore (run "a = zeros(3) + zeros(4)");
    Alcotest.fail "expected error"
  with Interp.Runtime_error _ -> ()

let test_interp_index_non_indexable () =
  try
    ignore (run "x = 5\ny = x[1]");
    Alcotest.fail "expected type error"
  with Value.Type_error _ -> ()

let test_interp_op_assign_vector_element () =
  let env = run "v = zeros(3)\nv[2] += 1.5\nv[2] *= 2.0\nx = v[2]" in
  check_float env "x" 3.0

let test_interp_vector_range_assign () =
  let env =
    run "v = zeros(5)\nw = fill(7.0, 3)\nv[2:4] = w\ns = sum(v)\nx = v[1]"
  in
  check_float env "s" 21.0;
  check_float env "x" 0.0

let test_interp_nested_loops () =
  let env =
    run "s = 0\nfor i = 1:4\n  for j = 1:4\n    if j > i\n      continue\n    end\n    s += 1\n  end\nend"
  in
  (* sum over i of i = 10 *)
  check_float env "s" 10.0

let test_interp_elseif_execution () =
  let prog v =
    Printf.sprintf
      "x = %d\nif x > 10\n  r = 1\nelseif x > 5\n  r = 2\nelseif x > 0\n  r = 3\nelse\n  r = 4\nend"
      v
  in
  List.iter
    (fun (v, expect) ->
      let env = run (prog v) in
      check_float env "r" expect)
    [ (20, 1.0); (7, 2.0); (3, 3.0); (-1, 4.0) ]

let test_interp_unknown_function_error () =
  try
    ignore (run "x = frobnicate(1)");
    Alcotest.fail "expected error"
  with Interp.Runtime_error msg ->
    Alcotest.(check bool) "mentions name" true
      (String.length msg > 0)

(* runtime errors carry the source position of the failing statement *)
let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_interp_error_position () =
  try
    ignore (run "x = 1\ny = undefined_var + 1");
    Alcotest.fail "expected error"
  with Interp.Runtime_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S starts with \"2:\"" msg)
      true
      (starts_with ~prefix:"2:" msg)

let test_interp_error_position_nested () =
  let src = "acc = 0\nfor i = 1:3\n  acc = acc + 1\n  z = frobnicate(i)\nend" in
  try
    ignore (run src);
    Alcotest.fail "expected error"
  with Interp.Runtime_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S starts with \"4:\"" msg)
      true
      (starts_with ~prefix:"4:" msg)

(* ------------------------------------------------------------------ *)
(* Semantic checker                                                    *)
(* ------------------------------------------------------------------ *)

let diags ?globals src =
  Check.check_program ?globals (Parser.parse_program src)

let has_error ds sub =
  List.exists
    (fun d ->
      d.Check.severity = Check.Error
      &&
      let m = d.Check.message and n = String.length sub in
      let rec go i =
        i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
      in
      go 0)
    ds

let has_warning ds sub =
  List.exists
    (fun d ->
      d.Check.severity = Check.Warning
      &&
      let m = d.Check.message and n = String.length sub in
      let rec go i =
        i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
      in
      go 0)
    ds

let test_check_clean_program () =
  let ds =
    diags ~globals:[ "data" ]
      "x = 1\ny = x + 2\nfor i = 1:10\n  y += i\nend"
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length ds)

let test_check_undefined_variable () =
  let ds = diags "x = y + 1" in
  Alcotest.(check bool) "undefined y" true (has_error ds "y is used before")

let test_check_maybe_undefined () =
  let ds = diags "a = 1\nif a > 0\n  b = 2\nend\nc = b" in
  Alcotest.(check bool) "maybe undefined b" true
    (has_warning ds "b may be undefined")

let test_check_defined_in_both_branches () =
  let ds = diags "a = 1\nif a > 0\n  b = 2\nelse\n  b = 3\nend\nc = b" in
  Alcotest.(check int) "no diagnostics" 0 (List.length ds)

let test_check_break_outside_loop () =
  let ds = diags "x = 1\nbreak" in
  Alcotest.(check bool) "break error" true (has_error ds "break outside");
  let ok = diags "while true\n  break\nend" in
  Alcotest.(check int) "break in loop ok" 0 (List.length ok)

let test_check_builtin_arity () =
  let ds = diags "x = dot(zeros(3))" in
  Alcotest.(check bool) "dot arity" true (has_error ds "dot expects 2");
  let ok = diags "x = dot(zeros(3), zeros(3))" in
  Alcotest.(check int) "correct arity ok" 0 (List.length ok)

let test_check_nested_parallel_for () =
  let ds =
    diags ~globals:[ "a"; "b" ]
      "@parallel_for for (k, v) in a\n\
       @parallel_for for (k2, v2) in b\n\
       x = v2\n\
       end\n\
       end"
  in
  Alcotest.(check bool) "nested error" true (has_error ds "cannot be nested")

let test_check_assign_loop_key () =
  let ds =
    diags ~globals:[ "a" ]
      "@parallel_for for (k, v) in a\n  k = (1, 2)\nend"
  in
  Alcotest.(check bool) "key assignment warning" true
    (has_warning ds "loop index variable k")

let test_check_loop_body_definitions_are_maybe () =
  (* a for-loop body may run zero times *)
  let ds = diags "for i = 1:0\n  x = i\nend\ny = x" in
  Alcotest.(check bool) "x maybe undefined" true
    (has_warning ds "x may be undefined")

let test_check_mf_script_clean () =
  let ds =
    diags
      ~globals:[ "ratings"; "W"; "H"; "num_iterations" ]
      Orion_apps.Sgd_mf.script
  in
  Alcotest.(check (list string)) "mf script clean" []
    (List.map Check.diagnostic_to_string ds)

let test_check_diagnostic_positions () =
  let ds = diags "x = 1\nbreak" in
  match List.filter (fun d -> d.Check.severity = Check.Error) ds with
  | [ d ] ->
      (match d.Check.pos with
      | Some p ->
          Alcotest.(check int) "line" 2 p.Ast.line;
          Alcotest.(check int) "col" 1 p.Ast.col
      | None -> Alcotest.fail "diagnostic carries no position");
      let s = Check.diagnostic_to_string d in
      Alcotest.(check bool) "rendered with line:col prefix" true
        (String.length s >= 5 && String.sub s 0 5 = "2:1: ")
  | ds' ->
      Alcotest.failf "expected exactly one error, got %d" (List.length ds')

let test_check_position_inside_block () =
  let ds = diags "a = 1\nif a > 0\n  x = y + 1\nend" in
  match List.filter (fun d -> d.Check.severity = Check.Error) ds with
  | [ d ] -> (
      match d.Check.pos with
      | Some p -> Alcotest.(check int) "line of nested stmt" 3 p.Ast.line
      | None -> Alcotest.fail "diagnostic carries no position")
  | ds' ->
      Alcotest.failf "expected exactly one error, got %d" (List.length ds')

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

let test_profile_record_and_hot_lines () =
  let p = Profile.create () in
  Profile.record_line p ~line:3 ~seconds:0.5;
  Profile.record_line p ~line:3 ~seconds:0.25;
  Profile.record_line p ~line:7 ~seconds:0.1;
  (match Profile.hot_lines p with
  | [ (l1, h1, s1); (l2, h2, s2) ] ->
      Alcotest.(check int) "hottest line" 3 l1;
      Alcotest.(check int) "hottest hits" 2 h1;
      Alcotest.(check (float 1e-9)) "hottest seconds" 0.75 s1;
      Alcotest.(check int) "second line" 7 l2;
      Alcotest.(check int) "second hits" 1 h2;
      Alcotest.(check (float 1e-9)) "second seconds" 0.1 s2
  | l -> Alcotest.failf "expected two lines, got %d" (List.length l));
  Alcotest.(check (float 1e-9)) "total" 0.85 (Profile.total_seconds p);
  Profile.reset p;
  Alcotest.(check int) "reset clears" 0 (List.length (Profile.line_stats p))

let test_profile_interp_line_hits () =
  let p = Profile.create () in
  let env = Interp.create_env ~profile:p () in
  Interp.run_program env (parse "t = 0\nfor i = 1:10\n  t += i\nend");
  let hits line =
    match List.find_opt (fun (l, _, _) -> l = line) (Profile.line_stats p) with
    | Some (_, h, _) -> h
    | None -> 0
  in
  Alcotest.(check int) "assignment once" 1 (hits 1);
  Alcotest.(check int) "loop header once" 1 (hits 2);
  Alcotest.(check int) "body per iteration" 10 (hits 3)

let test_profile_array_counters () =
  let data = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ex =
    Value.
      {
        ex_name = "A";
        ex_dims = [| 2; 2 |];
        ex_get =
          (fun subs ->
            match subs with
            | [| Cpoint i; Cpoint j |] -> Vfloat data.((i * 2) + j)
            | _ -> Alcotest.fail "bad subs");
        ex_set =
          (fun subs v ->
            match subs with
            | [| Cpoint i; Cpoint j |] -> data.((i * 2) + j) <- Value.to_float v
            | _ -> Alcotest.fail "bad subs");
        ex_iter = (fun _ -> ());
        ex_count = (fun () -> 4);
        ex_fast = None;
      }
  in
  let p = Profile.create () in
  let env = Interp.create_env ~profile:p () in
  Interp.set_var env "A" (Value.Vextern ex);
  Interp.run_program env
    (parse "x = A[1, 1]\nA[2, 2] = x + 1.0\ny = A[2, 2]");
  match Profile.array_stats p with
  | [ ("A", reads, writes) ] ->
      Alcotest.(check int) "reads" 2 reads;
      Alcotest.(check int) "writes" 1 writes
  | l -> Alcotest.failf "expected stats for A only, got %d" (List.length l)

let test_profile_report_renders () =
  let p = Profile.create () in
  let src = "t = 0\nfor i = 1:3\n  t += i\nend" in
  let env = Interp.create_env ~profile:p () in
  Interp.run_program env (parse src);
  let r = Profile.report ~src p in
  let contains sub =
    let n = String.length sub and m = String.length r in
    let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header" true (contains "Hot lines");
  Alcotest.(check bool) "shows source text" true (contains "t += i")

(* ------------------------------------------------------------------ *)
(* Interpreter bugfix regressions                                      *)
(* ------------------------------------------------------------------ *)

let check_value name expected actual =
  Alcotest.(check string)
    name (Value.to_string expected) (Value.to_string actual)

let test_min_max_preserve_int () =
  let env =
    run "a = min(3, 5)\nb = max(2, 7)\nc = min(3, 5.0)\nd = max(2.5, 1)"
  in
  check_value "min(3,5) stays int" (Value.Vint 3) (Interp.get_var env "a");
  check_value "max(2,7) stays int" (Value.Vint 7) (Interp.get_var env "b");
  check_value "min(3,5.0) is float" (Value.Vfloat 3.0) (Interp.get_var env "c");
  check_value "max(2.5,1) is float" (Value.Vfloat 2.5)
    (Interp.get_var env "d")

let expect_error ~sub src =
  match run src with
  | exception Interp.Runtime_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S appears in %S" sub msg)
        true
        (let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0);
      msg
  | exception e -> Alcotest.failf "expected Runtime_error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.failf "expected Runtime_error from %S" src

let test_reversed_range_read_positioned () =
  let msg =
    expect_error ~sub:"empty vector range 3:2 (lo > hi)"
      "v = zeros(4)\nw = v[3:2]"
  in
  Alcotest.(check bool)
    (Printf.sprintf "positioned at line 2: %S" msg)
    true
    (starts_with ~prefix:"2:" msg)

let test_reversed_range_assign_positioned () =
  let msg =
    expect_error ~sub:"empty vector range 4:1 (lo > hi)"
      "v = zeros(4)\nv[4:1] = zeros(2)"
  in
  Alcotest.(check bool)
    (Printf.sprintf "positioned at line 2: %S" msg)
    true
    (starts_with ~prefix:"2:" msg)

let test_out_of_bounds_range_positioned () =
  let msg =
    expect_error ~sub:"vector range 2:9 out of bounds (length 4)"
      "v = zeros(4)\nw = v[2:9]"
  in
  Alcotest.(check bool)
    (Printf.sprintf "positioned at line 2: %S" msg)
    true
    (starts_with ~prefix:"2:" msg)

let test_type_error_positioned () =
  (* a Type_error escaping a statement carries the statement position,
     exactly like a Runtime_error *)
  match run "x = zeros(2)\nif x\n  y = 1\nend" with
  | exception Value.Type_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "positioned at line 2: %S" msg)
        true
        (starts_with ~prefix:"2:" msg)
  | exception e ->
      Alcotest.failf "expected Type_error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Type_error"

(* ------------------------------------------------------------------ *)
(* Profile shard merging                                               *)
(* ------------------------------------------------------------------ *)

let test_profile_merge () =
  let a = Profile.create () and b = Profile.create () in
  Profile.record_line a ~line:3 ~seconds:0.5;
  Profile.record_line b ~line:3 ~seconds:0.25;
  Profile.record_line b ~line:7 ~seconds:0.1;
  Profile.record_array_read a "W";
  Profile.record_array_write b "W";
  Profile.record_array_read b "W";
  Profile.merge ~into:a b;
  (match Profile.line_stats a with
  | [ (3, h3, s3); (7, h7, s7) ] ->
      Alcotest.(check int) "line 3 hits summed" 2 h3;
      Alcotest.(check (float 1e-9)) "line 3 seconds summed" 0.75 s3;
      Alcotest.(check int) "line 7 hits" 1 h7;
      Alcotest.(check (float 1e-9)) "line 7 seconds" 0.1 s7
  | l -> Alcotest.failf "expected lines 3 and 7, got %d entries" (List.length l));
  (match Profile.array_stats a with
  | [ ("W", reads, writes) ] ->
      Alcotest.(check int) "reads summed" 2 reads;
      Alcotest.(check int) "writes summed" 1 writes
  | l -> Alcotest.failf "expected stats for W only, got %d" (List.length l));
  (* merging is deterministic: same shards in the same order give the
     same totals *)
  Alcotest.(check (float 1e-9)) "total" 0.85 (Profile.total_seconds a)

(* ------------------------------------------------------------------ *)
(* Compiled kernels match the interpreter                              *)
(* ------------------------------------------------------------------ *)

(* A kernel environment: one 8-element float array [W] exposed as an
   extern with a fast accessor (mirroring [Dist_array.to_extern] for
   point subscripts; the bodies run against it never slice [W]), a
   seeded RNG, and nothing else. *)
let kernel_len = 8

let make_kernel_env ~seed () =
  let data = Array.init kernel_len (fun i -> 0.25 *. float_of_int (i + 1)) in
  let get_f key =
    match key with
    | [| i |] when i >= 0 && i < kernel_len -> data.(i)
    | [| i |] ->
        raise
          (Interp.Runtime_error
             (Printf.sprintf "W[%d] out of bounds (length %d)" (i + 1)
                kernel_len))
    | _ -> raise (Interp.Runtime_error "W: rank mismatch")
  in
  let set_f key v =
    match key with
    | [| i |] when i >= 0 && i < kernel_len -> data.(i) <- v
    | [| i |] ->
        raise
          (Interp.Runtime_error
             (Printf.sprintf "W[%d] out of bounds (length %d)" (i + 1)
                kernel_len))
    | _ -> raise (Interp.Runtime_error "W: rank mismatch")
  in
  let point = function
    | Value.Cpoint i -> i
    | _ -> raise (Interp.Runtime_error "W: range subscripts unsupported")
  in
  let ex =
    Value.
      {
        ex_name = "W";
        ex_dims = [| kernel_len |];
        ex_get = (fun subs -> Vfloat (get_f (Array.map point subs)));
        ex_set = (fun subs v -> set_f (Array.map point subs) (to_float v));
        ex_iter =
          (fun f ->
            Array.iteri (fun i x -> f [| i |] (Value.Vfloat x)) data);
        ex_count = (fun () -> kernel_len);
        ex_fast = Some { fa_get = get_f; fa_set = set_f; fa_dense = None };
      }
  in
  let env = Interp.create_env ~seed () in
  Interp.set_var env "W" (Value.Vextern ex);
  (env, data)

(* bitwise float equality (also distinguishes -0. from 0. and compares
   NaNs equal) *)
let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let outcome_to_string = function
  | Ok () -> "ok"
  | Error msg -> "error: " ^ msg

(* Run [body] over keys 1..kernel_len interpreted and compiled (one
   block of all the keys), and demand identical observable behavior:
   same exception (or none), same final array contents bitwise, same
   leaked locals, same RNG state. *)
let check_compiled_matches_interpreted body_src =
  let body = parse body_src in
  let keys = Array.init kernel_len (fun i -> [| i + 1 |]) in
  let floats =
    Array.init kernel_len (fun i -> 0.5 +. (0.125 *. float_of_int i))
  in
  let value_of i = Value.Vfloat floats.(i) in
  let env_i, data_i = make_kernel_env ~seed:42 () in
  let outcome_i =
    try
      Array.iteri
        (fun i key ->
          Interp.eval_body_for env_i ~key_var:"key" ~value_var:"v" ~key
            ~value:(value_of i) body)
        keys;
      Ok ()
    with
    | Interp.Runtime_error m -> Error ("runtime: " ^ m)
    | Value.Type_error m -> Error ("type: " ^ m)
  in
  let env_c, data_c = make_kernel_env ~seed:42 () in
  let kernel =
    match
      Compile.compile_body env_c ~value_float:true ~key_var:"key"
        ~value_var:"v" body
    with
    | Some k -> k
    | None -> Alcotest.failf "body did not compile:\n%s" body_src
  in
  let outcome_c =
    try
      Compile.run_floats kernel ~dims:[| kernel_len + 1 |] ~strides:[| 1 |]
        (Array.map (fun key -> key.(0)) keys)
        floats;
      Ok ()
    with
    | Interp.Runtime_error m -> Error ("runtime: " ^ m)
    | Value.Type_error m -> Error ("type: " ^ m)
  in
  Compile.flush_locals kernel;
  Alcotest.(check string)
    (Printf.sprintf "same outcome for:\n%s" body_src)
    (outcome_to_string outcome_i)
    (outcome_to_string outcome_c);
  Array.iteri
    (fun i x ->
      if not (bits_eq x data_c.(i)) then
        Alcotest.failf "W[%d]: interpreted %h <> compiled %h for:\n%s" (i + 1)
          x data_c.(i) body_src)
    data_i;
  (* locals the loop leaks into the environment *)
  List.iter
    (fun name ->
      let s v = match v with Some x -> Value.to_string x | None -> "<unset>" in
      let vi = Interp.var_opt env_i name and vc = Interp.var_opt env_c name in
      Alcotest.(check string)
        (Printf.sprintf "leaked %s for:\n%s" name body_src)
        (s vi) (s vc))
    [ "t"; "n"; "u" ];
  (* both sides consumed the same randomness *)
  if outcome_i = Ok () then
    let draw env = Value.to_float (Interp.eval_builtin env "rand" []) in
    Alcotest.(check bool)
      (Printf.sprintf "same RNG state for:\n%s" body_src)
      true
      (bits_eq (draw env_i) (draw env_c))

let test_compile_handwritten_bodies () =
  List.iter check_compiled_matches_interpreted
    [
      (* scalar arithmetic, int/float mixing, key access *)
      "k = key[1]\nt = v * 2.0 + float(k)\nW[k] += t / 3.0";
      (* control flow: if/elseif/else, while with break/continue *)
      "k = key[1]\n\
       if W[k] > 1.0\n\
      \  W[k] = W[k] - 0.5\n\
       elseif W[k] > 0.5\n\
      \  W[k] = W[k] * 2.0\n\
       else\n\
      \  W[k] = W[k] + 0.25\n\
       end";
      "k = key[1]\n\
       n = 0\n\
       while true\n\
      \  n += 1\n\
      \  if n % 2 == 0\n\
      \    continue\n\
      \  end\n\
      \  if n > 5\n\
      \    break\n\
      \  end\n\
       end\n\
       W[k] = float(n)";
      (* nested range loops and vectors *)
      "k = key[1]\n\
       u = zeros(3)\n\
       for j = 1:3\n\
      \  u[j] = float(j) * v\n\
       end\n\
       t = dot(u, u) + norm(u)\n\
       W[k] = t";
      (* vector slices (checked ranges) *)
      "k = key[1]\nu = zeros(4)\nu[2] = v\ns = u[2:3]\nW[k] = s[1]";
      (* builtins: exp/log/sqrt/sigmoid/abs/min/max, int preservation *)
      "k = key[1]\n\
       a = min(k, 3)\n\
       b = max(a, 2)\n\
       t = exp(min(v, 1.0)) + log(v + 1.0) + sqrt(abs(v)) + sigmoid(v)\n\
       W[b] += t * 0.001";
      (* RNG consumption *)
      "k = key[1]\nt = rand() + randn() * 0.1\nW[k] = t";
      (* op-assign on array elements, euclidean mod, integer division *)
      "k = key[1]\nn = (0 - k) % 3 + 1\nW[n] += v\nm = 7 / 2\nW[m] -= v";
      (* error path: division by zero, same message and position *)
      "k = key[1]\nz = 0\nt = 1 / z\nW[k] = float(t)";
      (* error path: undefined variable *)
      "k = key[1]\nW[k] = undefined_thing + 1.0";
      (* error path: reversed vector range *)
      "k = key[1]\nu = zeros(3)\ns = u[3:1]\nW[k] = s[1]";
      (* error path: dot over vectors of different lengths, either way *)
      "k = key[1]\nu = zeros(3)\nw = zeros(2)\nW[k] = dot(u, w)";
      "k = key[1]\nu = zeros(3)\nw = zeros(2)\nW[k] = dot(w, u)";
      "k = key[1]\nu = zeros(3)\nW[k] = dot(u, v)";
    ]

(* random bodies from a tiny grammar: scalar float/int expressions over
   the key, value, W, a float accumulator, an int counter and a float
   [u] that only some paths assign (so a read may find it undefined),
   under if/for control flow — enough to cover the compiler's fast and
   generic paths *)
let gen_kernel_body : string QCheck.Gen.t =
  let open QCheck.Gen in
  let int_atom =
    oneof
      [ map string_of_int (int_range 1 5); return "k"; return "n" ]
  in
  let int_expr =
    oneof
      [
        int_atom;
        map2 (fun a b -> "(" ^ a ^ " + " ^ b ^ ")") int_atom int_atom;
        map2 (fun a b -> "(" ^ a ^ " * " ^ b ^ ")") int_atom int_atom;
        map2 (fun a b -> "(" ^ a ^ " % " ^ b ^ ")") int_atom
          (map string_of_int (int_range 2 5));
      ]
  in
  let idx = map (fun e -> "((" ^ e ^ " % 8) + 1)") int_expr in
  let float_atom =
    oneof
      [
        map (Printf.sprintf "%.3f") (float_bound_inclusive 2.0);
        return "v";
        return "t";
        return "u";
        return "rand()";
        map (fun i -> "W[" ^ i ^ "]") idx;
      ]
  in
  let float_expr =
    oneof
      [
        float_atom;
        map2 (fun a b -> "(" ^ a ^ " + " ^ b ^ ")") float_atom float_atom;
        map2 (fun a b -> "(" ^ a ^ " - " ^ b ^ ")") float_atom float_atom;
        map2 (fun a b -> "(" ^ a ^ " * " ^ b ^ ")") float_atom float_atom;
        map (fun a -> "exp(min(" ^ a ^ ", 1.0))") float_atom;
        map (fun a -> "sigmoid(" ^ a ^ ")") float_atom;
        map (fun a -> "sqrt(abs(" ^ a ^ "))") float_atom;
        map2 (fun a b -> "min(" ^ a ^ ", " ^ b ^ ")") float_atom float_atom;
      ]
  in
  let cmp =
    oneof
      [
        map2 (fun a b -> a ^ " < " ^ b) float_atom float_atom;
        map2 (fun a b -> a ^ " >= " ^ b) float_atom float_atom;
        map2 (fun a b -> a ^ " == " ^ b) int_atom int_atom;
      ]
  in
  let simple_stmt =
    oneof
      [
        map (fun e -> "t = " ^ e) float_expr;
        map (fun e -> "u = " ^ e) float_expr;
        map (fun e -> "t += " ^ e) float_expr;
        map (fun e -> "t *= " ^ e) float_atom;
        map (fun e -> "n = " ^ e) int_expr;
        map2 (fun i e -> "W[" ^ i ^ "] = " ^ e) idx float_expr;
        map2 (fun i e -> "W[" ^ i ^ "] += " ^ e) idx float_expr;
        map2 (fun i e -> "W[" ^ i ^ "] -= " ^ e) idx float_atom;
      ]
  in
  let stmt =
    oneof
      [
        simple_stmt;
        map3
          (fun c a b -> "if " ^ c ^ "\n  " ^ a ^ "\nelse\n  " ^ b ^ "\nend")
          cmp simple_stmt simple_stmt;
        map2
          (fun hi body -> "for j = 1:" ^ string_of_int hi ^ "\n  " ^ body
                          ^ "\n  t += float(j)\nend")
          (int_range 1 3) simple_stmt;
      ]
  in
  let* n_stmts = int_range 1 6 in
  let+ stmts = list_repeat n_stmts stmt in
  String.concat "\n" ("k = key[1]" :: "t = v" :: "n = k" :: stmts)

let test_compile_random_bodies_qcheck () =
  QCheck.Test.make ~count:300
    ~name:"compiled kernel bitwise-matches interpreter on random bodies"
    (QCheck.make ~print:(fun s -> s) gen_kernel_body)
    (fun body_src ->
      check_compiled_matches_interpreted body_src;
      true)

let test_compile_disabled_env_var () =
  (* ORION_NO_COMPILE turns the compiler off; unsetting turns it on *)
  let with_env v f =
    let old = try Unix.getenv "ORION_NO_COMPILE" with Not_found -> "" in
    Unix.putenv "ORION_NO_COMPILE" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "ORION_NO_COMPILE" old) f
  in
  with_env "1" (fun () ->
      Alcotest.(check bool) "disabled" false (Compile.enabled ()));
  with_env "0" (fun () ->
      Alcotest.(check bool) "0 means enabled" true (Compile.enabled ()));
  with_env "" (fun () ->
      Alcotest.(check bool) "empty means enabled" true (Compile.enabled ()))

let test_compile_rejects_nested_parallel_for () =
  let body =
    parse "k = key[1]\n@parallel_for for i = 1:3\n  W[i] = 0.0\nend"
  in
  let env, _ = make_kernel_env ~seed:1 () in
  match
    Compile.compile_body env ~value_float:true ~key_var:"key" ~value_var:"v"
      body
  with
  | None -> ()
  | Some _ -> Alcotest.fail "nested @parallel_for should not compile"

(* dot() over vectors of different lengths is a positioned
   Runtime_error, whichever argument is longer *)
let test_dot_length_mismatch_positioned () =
  List.iter
    (fun (src, sub) ->
      let msg = expect_error ~sub src in
      Alcotest.(check bool)
        (Printf.sprintf "positioned at line 3: %S" msg)
        true
        (starts_with ~prefix:"3:" msg))
    [
      ("u = zeros(3)\nw = zeros(2)\nt = dot(u, w)", "vector length mismatch: 3 vs 2");
      ("u = zeros(3)\nw = zeros(2)\nt = dot(w, u)", "vector length mismatch: 2 vs 3");
    ]

(* ------------------------------------------------------------------ *)
(* Compiled vector kernels match the interpreter                       *)
(* ------------------------------------------------------------------ *)

module Dist_array = Orion_dsm.Dist_array

(* A 3 x 5 dense [W] behind [Dist_array.to_extern], so slices have the
   host's own semantics: element by element in ascending order, an
   out-of-range element raising [Out_of_bounds] after the prefix, a
   length mismatch raising [Dimension_mismatch] before any write. *)
let vec_rows = 3
let vec_cols = 5

let make_vec_env () =
  let w =
    Dist_array.init_dense ~name:"W" ~dims:[| vec_rows; vec_cols |]
      ~f:(fun k ->
        0.5 +. (0.25 *. float_of_int k.(0)) -. (0.125 *. float_of_int k.(1)))
  in
  let env = Interp.create_env ~seed:7 () in
  Interp.set_var env "W" (Value.Vextern (Dist_array.to_extern w));
  (env, w)

let float_bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let value_bits = function
  | Some (Value.Vvec a) ->
      "[" ^ String.concat "," (Array.to_list (Array.map float_bits a)) ^ "]"
  | Some (Value.Vfloat x) -> float_bits x
  | Some v -> Value.to_string v
  | None -> "<unset>"

let csub_to_string = function
  | Value.Cpoint i -> string_of_int i
  | Value.Crange (a, b) -> Printf.sprintf "%d:%d" a b
  | Value.Call_dim -> ":"

(* an access hook on [env] that logs every access it sees, newest
   first *)
let log_accesses env =
  let log = ref [] in
  env.Interp.on_array_access <-
    Some
      (fun ex ~write subs ->
        log :=
          Printf.sprintf "%s%s[%s]" ex.Value.ex_name
            (if write then "<-" else "")
            (String.concat "," (Array.to_list (Array.map csub_to_string subs)))
          :: !log);
  log

(* [body] compiled against [env], or [None] to interpret it *)
let vector_kernel ~compiled env body =
  if not compiled then None
  else
    match
      Compile.compile_body env ~value_float:true ~key_var:"key"
        ~value_var:"v" body
    with
    | Some k -> Some k
    | None -> Alcotest.fail "vector body did not compile"

(* What one side of a differential run shows: how [run] ended, W
   bitwise and the [locals] it leaked, bitwise. *)
let observe env w kernel ~locals run =
  let outcome =
    match run () with
    | () -> "ok"
    | exception Interp.Runtime_error m -> "runtime: " ^ m
    | exception Value.Type_error m -> "type: " ^ m
    | exception Dist_array.Out_of_bounds m -> "out of bounds: " ^ m
    | exception Dist_array.Dimension_mismatch m -> "dimension mismatch: " ^ m
    | exception Invalid_argument m -> "invalid argument: " ^ m
  in
  Option.iter Compile.flush_locals kernel;
  ("outcome " ^ outcome)
  :: ("W "
     ^ String.concat ","
         (Array.to_list
            (Array.map (fun (_, x) -> float_bits x) (Dist_array.entries w))))
  :: List.map (fun n -> n ^ " " ^ value_bits (Interp.var_opt env n)) locals

(* Everything one side of a differential run over keys [c] of W's
   columns shows; the kernel runs them as one block. *)
let run_vector_kernel ~compiled body =
  let env, w = make_vec_env () in
  let kernel = vector_kernel ~compiled env body in
  let values = Array.init vec_cols (fun c -> 0.75 +. (0.5 *. float_of_int c)) in
  String.concat "\n"
    (observe env w kernel ~locals:[ "a"; "b"; "t" ] (fun () ->
         match kernel with
         | Some k ->
             Compile.run_floats k ~dims:[| vec_cols |] ~strides:[| 1 |]
               (Array.init vec_cols Fun.id) values
         | None ->
             Array.iteri
               (fun c x ->
                 Interp.eval_body_for env ~key_var:"key" ~value_var:"v"
                   ~key:[| c |] ~value:(Value.Vfloat x) body)
               values))

let check_vector_kernel body_src =
  let body = parse body_src in
  Alcotest.(check string)
    (Printf.sprintf "compiled = interpreted for:\n%s" body_src)
    (run_vector_kernel ~compiled:false body)
    (run_vector_kernel ~compiled:true body)

let vector_prelude = "k = key[1]\nj = (k % 5) + 1\na = W[:, k]\nb = a * 1.0\nt = v"

let test_compile_vector_bodies () =
  List.iter
    (fun stmts -> check_vector_kernel (vector_prelude ^ "\n" ^ stmts))
    [
      (* the mf update *)
      "h = W[:, j]\n\
       t = dot(a, h)\n\
       d = v - t\n\
       g = -2.0 * d * h\n\
       W[:, k] = a - g * 0.01";
      (* arithmetic shapes and negation *)
      "a = (a + b) * 2\nb = 1.5 - a\na = -b / 3.0\nW[:, j] = a";
      (* op-assign on a vector local *)
      "a += b\na *= 0.5\na -= 1\nW[:, k] = a";
      (* b = a aliases: a later element write shows through b *)
      "b = a\na[1] = 9.0\nW[:, j] = b";
      (* ranges: partial, empty, reversed, out of range *)
      "a = W[2:3, k]\nW[1:2, j] = a";
      "a = W[3:2, k]\nt = dot(a, a)\nW[1, k] = t";
      "a = W[3:1, k]";
      "a = W[0:2, k]";
      (* stores: out of range after a written prefix, wrong length *)
      "W[2:4, j] = b";
      "W[1:2, k] = b";
      (* positions that run code: a range bound, and a point out of
         range at the last entry, read and stored *)
      "a = W[(k % 3) + 1:3, k]\nW[2:3, j] = W[2:3, k]";
      "t = v + 0.5\nW[:, k + 1] = b";
      "a = W[:, k + 1]";
      (* length mismatches in arithmetic and dot *)
      "a = W[2:3, k]\nb = a + b";
      "t = dot(b, W[2:3, k])";
      "t = dot(W[1:1, k], b)";
      (* a key with fewer components than the body reads: the read of
         [key[2]] raises as the interpreter's does, after the same
         writes, in a statement run as one closure or a generic one *)
      "W[1, k] = t\nb = W[:, key[2]]";
      "W[2, k] = v\nW[key[2], k] += v";
      "W[3, j] = v\nt = float(key[2])";
      (* NaNs of both signs meet in one multiply: 0/0 makes a negative
         NaN, negating it a positive one, and [t * a] multiplies the
         two, where the surviving sign follows the operand order *)
      "b = ((b - b) * 2)\n\
       a = W[:, k]\n\
       a += (b / b)\n\
       t = dot(W[1:3, j], -a)\n\
       t = dot((v * W[:, j]), (t * a))";
    ]

(* ------------------------------------------------------------------ *)
(* Hooks belong to the interpreter                                     *)
(* ------------------------------------------------------------------ *)

(* attach a profile or an access hook to [env] *)
let attach hook (env : Interp.env) =
  match hook with
  | `Profile -> env.Interp.profile <- Some (Profile.create ())
  | `Access -> ignore (log_accesses env)

let hooks = [ (`Profile, "profile"); (`Access, "access hook") ]

(* no kernel is compiled for an environment a hook observes *)
let test_hooked_env_does_not_compile () =
  let body = parse (vector_prelude ^ "\nW[:, k] = a") in
  List.iter
    (fun (hook, name) ->
      let env, _ = make_vec_env () in
      attach hook env;
      Alcotest.(check bool)
        (name ^ ": compile_body returns None")
        true
        (Option.is_none
           (Compile.compile_body env ~value_float:true ~key_var:"key"
              ~value_var:"v" body)))
    hooks

(* a kernel whose environment gains a hook after compiling refuses to
   run, rather than run unobserved *)
let test_hook_after_compile_refuses () =
  let body = parse (vector_prelude ^ "\nW[:, k] = a") in
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "%s ran with a hook attached" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (hook, name) ->
      let kernel ~value_float =
        let env, _ = make_vec_env () in
        match
          Compile.compile_body env ~value_float ~key_var:"key" ~value_var:"v"
            body
        with
        | Some k ->
            attach hook env;
            k
        | None -> Alcotest.fail "body did not compile"
      in
      let k = kernel ~value_float:true in
      refuses ("run_floats, " ^ name) (fun () ->
          Compile.run_floats k ~dims:[| vec_cols |] ~strides:[| 1 |] [| 0 |]
            [| 1.0 |]);
      let k = kernel ~value_float:false in
      refuses ("run, " ^ name) (fun () ->
          Compile.run k ~key:[| 0 |] ~value:(Value.Vfloat 1.0)))
    hooks

(* over a hooked environment [Engine.loop_body] compiles no kernel, and
   its body is the interpreter's: the same accesses in the same order,
   and the same arrays bitwise *)
let test_loop_body_hooked_interprets () =
  let module Schedule = Orion.Schedule in
  let run ~engine =
    let inst =
      match
        Orion_apps.Registry.materialize "mf" ~scale:1.0 ~num_machines:1
          ~workers_per_machine:1
      with
      | Some i -> i
      | None -> Alcotest.fail "no mf app"
    in
    let env = inst.Orion.App.inst_env in
    let log = log_accesses env in
    let body =
      if engine then
        match Orion.Engine.loop_body inst env with
        | None, body -> body
        | Some _, _ -> Alcotest.fail "a kernel was compiled over a hooked env"
      else
        Schedule.boxed_body (fun ~key ~value ->
            Interp.eval_body_for env ~key_var:inst.Orion.App.inst_key_var
              ~value_var:inst.Orion.App.inst_value_var ~key ~value
              inst.Orion.App.inst_body)
    in
    let session = inst.Orion.App.inst_session in
    let plan = Orion.analyze_loop session inst.Orion.App.inst_loop in
    let sched =
      (Orion.compile session ~plan ~iter:inst.Orion.App.inst_iter ())
        .Orion.schedule
    in
    Array.iter (Array.iter (Schedule.run_block body)) sched.Schedule.blocks;
    List.rev !log
    @ List.concat_map
        (fun (_, a) ->
          Array.to_list
            (Array.map (fun (_, x) -> float_bits x) (Dist_array.entries a)))
        inst.Orion.App.inst_outputs
  in
  let interpreted = run ~engine:false in
  Alcotest.(check bool) "the hook saw accesses" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = 'W') interpreted);
  Alcotest.(check (list string))
    "loop_body = interpreter" interpreted (run ~engine:true)

(* random vector bodies over W's slices, the locals a/b and the scalar
   t: every vector shape the compiler handles, out-of-range and
   reversed bounds (0 and 4 lie outside 1..3), length mismatches,
   buffers refilled in a loop or at a changing length, and aliases.
   Every operator meets each operand order of a statement compiled to
   one closure ([s op v], [v op s], [v op v], [(s1 op s2) op v], a
   slice store [x op (y op' s)]), with negated literals, slices at a
   key component, and scalars and vectors that hold NaNs of either
   sign. *)
let gen_vector_stmt : string QCheck.Gen.t =
  let open QCheck.Gen in
  let bound = map string_of_int (int_range 0 4) in
  let col = oneofl [ "k"; "j"; "key[1]" ] in
  let slice =
    oneof
      [
        map (fun c -> "W[:, " ^ c ^ "]") col;
        map3 (fun lo hi c -> "W[" ^ lo ^ ":" ^ hi ^ ", " ^ c ^ "]") bound bound col;
      ]
  in
  let vatom = oneof [ return "a"; return "b"; slice ] in
  let op = oneofl [ "+"; "-"; "*"; "/" ] in
  let paren3 x o y = "(" ^ x ^ " " ^ o ^ " " ^ y ^ ")" in
  let leaf =
    oneof
      [
        return "v";
        return "t";
        return "2";
        return "-3";
        return "-2.0";
        map (Printf.sprintf "%.2f") (float_range (-2.0) 2.0);
      ]
  in
  let scalar = frequency [ (3, leaf); (1, map3 paren3 leaf op leaf) ] in
  let vexpr =
    oneof
      [
        vatom;
        map3 paren3 vatom op vatom;
        map3 paren3 vatom op scalar;
        map3 paren3 scalar op vatom;
        map (fun x -> "-" ^ x) vatom;
        map3 (fun x y s -> paren3 (paren3 x "-" y) "*" s) vatom vatom scalar;
        (* the shape a slice store runs as one loop *)
        map3
          (fun (x, o) (y, o') s -> paren3 x o (paren3 y o' s))
          (pair vatom op) (pair vatom op) scalar;
      ]
  in
  let var = oneofl [ "a"; "b" ] in
  oneof
      [
        map (fun e -> "a = " ^ e) vexpr;
        map (fun e -> "b = " ^ e) vexpr;
        return "b = a";
        map (fun s -> "a[1] = " ^ s) scalar;
        map (fun e -> "a += " ^ e) vexpr;
        map (fun s -> "a *= " ^ s) scalar;
        map2 (fun x y -> "t = dot(" ^ x ^ ", " ^ y ^ ")") vexpr vexpr;
        map (fun e -> "W[:, k] = " ^ e) vexpr;
        (* a store of variables, as mf's: one loop over the slice *)
        map3
          (fun (c, x, o) (y, o') s ->
            "W[:, " ^ c ^ "] = " ^ paren3 x o (paren3 y o' s))
          (triple col var op) (pair var op) scalar;
        (* scalars and vectors holding NaNs: [0.0 / 0.0] has the sign
           bit set, its negation not *)
        oneofl
          [
            "t = 0.0 / 0.0";
            "t = -t";
            "b = (a - a) / (a - a)";
            "a = -b";
          ];
        map3 (fun x o s -> "t = " ^ paren3 x o s) leaf op leaf;
        (* points read, updated and written in place; [k] leaves W's
           3 rows in the vector test *)
        map2 (fun o s -> "W[1, k] = W[1, k] " ^ o ^ " " ^ s) op scalar;
        map2 (fun o s -> "W[k, 1] = W[2, j] " ^ o ^ " " ^ s) op scalar;
        map2 (fun o s -> "W[1, j] " ^ o ^ "= " ^ s) op scalar;
        map (fun c -> "t = W[2, " ^ c ^ "]") col;
        oneofl [ "W[2, k] = 3.0\nn = int(W[2, k])"; "n = int(W[1, j])" ];
        (* a position in a variable held boxed: [n] takes an int and a
           float in one body; [to_int] accepts 2.0 and rejects 2.5 *)
        oneofl
          [
            "n = (k % 3) + 1\nW[n, j] = W[n, k] - v\nn = v";
            "n = 2.0\nW[1, n] += t";
            "n = 2.5\nW[n, k] = W[1, n] * t";
            "if v > 1.5\n  n = 2.0\nelse\n  n = 3\nend\nW[1, n] += t";
          ];
        map3 (fun lo hi e -> "W[" ^ lo ^ ":" ^ hi ^ ", j] = " ^ e) bound bound vexpr;
        return "W[1, k] = t";
        (* reassigned inside an inner loop: the same buffers refilled *)
        map2
          (fun e s -> "for i = 1:2\n  a = " ^ e ^ "\n  b = a * " ^ s ^ "\nend")
          vexpr scalar;
        (* a slice whose length changes from entry to entry *)
        map (fun c -> "a = W[1:((k % 3) + 1), " ^ c ^ "]") col;
        (* after b = a, an index write through either shows in both *)
        map2
          (fun v s -> "b = a\n" ^ v ^ "[1] = " ^ s)
          (oneofl [ "a"; "b" ]) scalar;
        (* after b = a, a refill of either leaves the other as it was *)
        map2 (fun v e -> "b = a\n" ^ v ^ " = " ^ e) var vexpr;
      ]

let gen_vector_body : string QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let+ stmts = list_repeat n gen_vector_stmt in
  String.concat "\n" (vector_prelude :: stmts)

let test_compile_random_vector_bodies_qcheck () =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"compiled vector kernel bitwise-matches interpreter"
    (QCheck.make ~print:(fun s -> s) gen_vector_body)
    (fun body_src ->
      check_vector_kernel body_src;
      true)

(* ------------------------------------------------------------------ *)
(* Block kernels match the interpreter entry by entry                  *)
(* ------------------------------------------------------------------ *)

(* The iteration space of the block tests has W's own 3 x 5 shape; its
   entries run in a fixed scrambled order, cut into two blocks, each
   with a value of its own. *)
let block_dims = [| vec_rows; vec_cols |]
let block_strides = [| vec_cols; 1 |]
let block_keys = Array.init (vec_rows * vec_cols) (fun i -> ((i * 7) + 3) mod 15)

let block_values =
  Array.map
    (fun lin ->
      0.75 +. (0.5 *. float_of_int (lin mod 7)) -. (0.25 *. float_of_int (lin / 5)))
    block_keys

(* Everything one side of a block run shows, with the leaked key. *)
let run_block_kernel ~compiled body =
  let env, w = make_vec_env () in
  let kernel = vector_kernel ~compiled env body in
  let run () =
    match kernel with
    | Some k ->
        let block lo n =
          Compile.run_floats k ~dims:block_dims ~strides:block_strides
            (Array.sub block_keys lo n) (Array.sub block_values lo n)
        in
        block 0 6;
        block 6 (Array.length block_keys - 6)
    | None ->
        Array.iteri
          (fun i lin ->
            Interp.eval_body_for env ~key_var:"key" ~value_var:"v"
              ~key:[| lin / vec_cols; lin mod vec_cols |]
              ~value:(Value.Vfloat block_values.(i)) body)
          block_keys
  in
  String.concat "\n"
    (observe env w kernel ~locals:[ "a"; "b"; "t"; "n"; "kk"; "key" ] run)

let check_block_kernel body_src =
  let body = parse body_src in
  Alcotest.(check string)
    (Printf.sprintf "block kernel = interpreter for:\n%s" body_src)
    (run_block_kernel ~compiled:false body)
    (run_block_kernel ~compiled:true body)

let block_prelude =
  "r = key[1]\nk = key[2] + 1\nj = (k % 5) + 1\na = W[:, k]\nb = a * 1.0\nt = v"

(* statements that act on the block loop itself: [continue] on some
   entries, an error at a mid-block entry, and a key that escapes into a
   local, read at a later entry *)
let block_control_stmts =
  [
    "if v > 2.0\n  continue\nend";
    "if r == 1\n  t = t * 2.0\n  continue\nend";
    "if k == 4\n  n = 1 / (r - 2)\nend";
    "W[:, k + r] = a";
    "if r == 0\n  kk = key\nend\nif r == 2\n  W[kk[1], kk[2]] = v\nend";
    "kk = key\nW[1, kk[2]] = t";
    (* a slice at a key component that leaves W's 3 rows on the first
       block's last entry (key (1, 3)), the first this guard admits *)
    "if v < 1.2\n  a = W[key[2], :]\nend";
  ]

let test_block_kernel_bodies () =
  List.iter
    (fun stmts -> check_block_kernel (block_prelude ^ "\n" ^ stmts))
    (block_control_stmts
    @ [
        (* the mf update *)
        "h = W[:, j]\n\
         t = dot(a, h)\n\
         d = v - t\n\
         g = -2.0 * d * h\n\
         W[:, k] = a - g * 0.01\n\
         W[:, j] = h - (d * a) * 0.01";
      ]
    (* NaNs of both signs meet in every operator of each statement
       compiled to one closure: [t] and [b] hold negative NaNs, [u] and
       [a] positive ones *)
    @ List.concat_map
        (fun op ->
          List.map
            (fun op' ->
              Printf.sprintf
                "h = W[:, j]\n\
                 t = 0.0 / 0.0\n\
                 u = -t\n\
                 b = (a - a) / (a - a)\n\
                 a = -b\n\
                 W[:, k] = h %s (a %s t)\n\
                 W[:, j] = b %s (h %s u)\n\
                 n = t %s u\n\
                 b = (u %s t) %s a\n\
                 W[r, j] = W[r, k] %s t\n\
                 W[1, k] %s= u\n\
                 a = a %s t\n\
                 b = t %s b\n\
                 t = u %s -2.0\n\
                 a = a %s b"
                op op' op op' op op op' op op op op op op)
            [ "+"; "-"; "*"; "/" ])
        [ "+"; "-"; "*"; "/" ]
    (* NaNs of both signs meet in each operation of a store run as one
       loop: [-a] holds positive NaNs, [a op s] negative ones *)
    @ List.concat_map
        (fun op ->
          List.map
            (fun op' ->
              Printf.sprintf
                "b = ((b - b) * 2)\na += (b / b)\nW[:, j] = (-a) %s (a %s v)"
                op op')
            [ "+"; "-"; "*"; "/" ])
        [ "+"; "-"; "*"; "/" ])

(* random vector bodies with block-level control flow mixed in *)
let gen_block_body : string QCheck.Gen.t =
  let open QCheck.Gen in
  let stmt =
    frequency [ (3, gen_vector_stmt); (1, oneofl block_control_stmts) ]
  in
  let* n = int_range 1 6 in
  let+ stmts = list_repeat n stmt in
  String.concat "\n" (block_prelude :: stmts)

let test_block_kernel_random_qcheck () =
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"block kernel bitwise-matches interpreter entry by entry"
    (QCheck.make ~print:(fun s -> s) gen_block_body)
    (fun body_src ->
      check_block_kernel body_src;
      true)

(* Minor words a compiled kernel allocates per entry over one pass of
   [keys] (linearized against [dims]) as one block, after a warm-up pass
   (which sizes every scratch buffer).  The keys and values exist
   beforehand, so only the kernel counts. *)
let kernel_words_per_entry kernel ~dims ~strides keys values =
  let pass () = Compile.run_floats kernel ~dims ~strides keys values in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  (Gc.minor_words () -. w0) /. float_of_int (Array.length keys)

(* The mf kernel through the block loop of the pool and the worker
   ([Schedule.run_block]), over mf's own schedule: it writes its
   scalars into cells and its vectors into its locals' own arrays,
   reads and writes the dense W and H in place, and takes every entry's
   key in one array of its own, so an entry allocates nothing.  A
   warm-up pass sizes every buffer. *)
let test_mf_kernel_allocation () =
  let module Schedule = Orion.Schedule in
  let inst =
    match
      Orion_apps.Registry.materialize "mf" ~scale:4.0 ~num_machines:1
        ~workers_per_machine:1
    with
    | Some i -> i
    | None -> Alcotest.fail "no mf app"
  in
  let session = inst.Orion.App.inst_session in
  let plan = Orion.analyze_loop session inst.Orion.App.inst_loop in
  let sched =
    (Orion.compile session ~plan ~iter:inst.Orion.App.inst_iter ())
      .Orion.schedule
  in
  let body =
    match Orion.Engine.loop_body inst inst.Orion.App.inst_env with
    | Some _, body ->
        {
          body with
          Schedule.boxed =
            (fun ~key:_ ~value:_ -> Alcotest.fail "a value was boxed");
        }
    | None, _ -> Alcotest.fail "mf kernel did not compile"
  in
  let pass () =
    Array.iter (Array.iter (Schedule.run_block body)) sched.Schedule.blocks
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let per_entry =
    (Gc.minor_words () -. w0)
    /. float_of_int (Schedule.total_entries sched)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per entry <= 1" per_entry)
    true (per_entry <= 1.0)

(* A scalar read-modify-write body over dense arrays, shaped like lda's:
   int and float locals live in cells, and point reads and writes go
   straight to the flat storage. *)
let test_scalar_kernel_allocation () =
  let body =
    parse
      "old_t = int(token_topic[key[1], key[2]])\n\
       doc_topic[key[1], old_t] = doc_topic[key[1], old_t] - cnt\n\
       word_topic[key[2], old_t] -= cnt\n\
       new_t = ((old_t + key[2]) % 3) + 1\n\
       w = 0.5 * cnt\n\
       doc_topic[key[1], new_t] = doc_topic[key[1], new_t] + w\n\
       word_topic[key[2], new_t] += w\n\
       token_topic[key[1], key[2]] = float(new_t)"
  in
  let docs = 4 and words = 5 and topics = 3 in
  let env = Interp.create_env () in
  List.iter
    (fun a ->
      Interp.set_var env (Dist_array.name a)
        (Value.Vextern (Dist_array.to_extern a)))
    [
      Dist_array.fill_dense ~name:"doc_topic" ~dims:[| docs; topics |] 5.0;
      Dist_array.fill_dense ~name:"word_topic" ~dims:[| words; topics |] 4.0;
      Dist_array.init_dense ~name:"token_topic" ~dims:[| docs; words |]
        ~f:(fun k -> float_of_int (((k.(0) + k.(1)) mod topics) + 1));
    ];
  let kernel =
    match
      Compile.compile_body env ~value_float:true ~key_var:"key"
        ~value_var:"cnt" body
    with
    | Some k -> k
    | None -> Alcotest.fail "lda-shaped body did not compile"
  in
  let per_entry =
    kernel_words_per_entry kernel ~dims:[| docs; words |]
      ~strides:[| words; 1 |]
      (Array.init (docs * words) Fun.id)
      (Array.make (docs * words) 1.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per entry <= 4" per_entry)
    true (per_entry <= 4.0)

(* An lda-shaped body writes every array it reads by index.  Index
   writes do not rebind the array, so each access still goes through
   the unboxed point accessors; the boxed ones are never called. *)
let test_index_written_array_takes_fast_path () =
  let body =
    parse
      "old_t = int(token_topic[key[1], key[2]])\n\
       doc_topic[key[1], old_t] = doc_topic[key[1], old_t] - cnt\n\
       word_topic[key[2], old_t] = word_topic[key[2], old_t] - cnt\n\
       new_t = ((old_t + key[2]) % 3) + 1\n\
       doc_topic[key[1], new_t] = doc_topic[key[1], new_t] + cnt\n\
       word_topic[key[2], new_t] += cnt\n\
       token_topic[key[1], key[2]] = float(new_t)"
  in
  let docs = 4 and words = 5 and topics = 3 in
  let boxed = ref 0 and fast = ref 0 in
  let counted (ex : Value.extern) =
    {
      ex with
      Value.ex_get =
        (fun s ->
          incr boxed;
          ex.Value.ex_get s);
      ex_set =
        (fun s v ->
          incr boxed;
          ex.Value.ex_set s v);
      ex_fast =
        Option.map
          (fun (fa : Value.fast_access) ->
            {
              Value.fa_get =
                (fun k ->
                  incr fast;
                  fa.Value.fa_get k);
              fa_set =
                (fun k x ->
                  incr fast;
                  fa.Value.fa_set k x);
              (* hide the flat storage, so that every unboxed access
                 goes through the counted accessors *)
              fa_dense = None;
            })
          ex.Value.ex_fast;
    }
  in
  let run ~compiled =
    let dt = Dist_array.fill_dense ~name:"doc_topic" ~dims:[| docs; topics |] 5.0 in
    let wt = Dist_array.fill_dense ~name:"word_topic" ~dims:[| words; topics |] 4.0 in
    let tt =
      Dist_array.init_dense ~name:"token_topic" ~dims:[| docs; words |]
        ~f:(fun k -> float_of_int (((k.(0) + k.(1)) mod topics) + 1))
    in
    let env = Interp.create_env () in
    List.iter
      (fun a ->
        let ex = Dist_array.to_extern a in
        Interp.set_var env (Dist_array.name a)
          (Value.Vextern (if compiled then counted ex else ex)))
      [ dt; wt; tt ];
    (if compiled then
       match
         Compile.compile_body env ~value_float:true ~key_var:"key"
           ~value_var:"cnt" body
       with
       | Some k ->
           Compile.run_floats k ~dims:[| docs; words |] ~strides:[| words; 1 |]
             (Array.init (docs * words) Fun.id)
             (Array.make (docs * words) 1.0)
       | None -> Alcotest.fail "lda-shaped body did not compile"
     else
       for d = 0 to docs - 1 do
         for w = 0 to words - 1 do
           Interp.eval_body_for env ~key_var:"key" ~value_var:"cnt"
             ~key:[| d; w |] ~value:(Value.Vfloat 1.0) body
         done
       done);
    List.concat_map
      (fun a -> Array.to_list (Array.map (fun (_, x) -> float_bits x) (Dist_array.entries a)))
      [ dt; wt; tt ]
  in
  let interpreted = run ~compiled:false in
  let compiled = run ~compiled:true in
  Alcotest.(check (list string)) "same arrays" interpreted compiled;
  Alcotest.(check int) "boxed accessor calls" 0 !boxed;
  Alcotest.(check bool) "unboxed accessor calls" true (!fast > 0)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          tc "basic" `Quick test_lex_basic;
          tc "floats" `Quick test_lex_floats;
          tc "comments" `Quick test_lex_comments;
          tc "operators" `Quick test_lex_operators;
          tc "macro" `Quick test_lex_macro;
          tc "string escapes" `Quick test_lex_string_escapes;
          tc "error position" `Quick test_lex_error_pos;
        ] );
      ( "parser",
        [
          tc "precedence" `Quick test_parse_precedence;
          tc "power right assoc" `Quick test_parse_power_right_assoc;
          tc "unary precedence" `Quick test_parse_unary_precedence;
          tc "comparisons" `Quick test_parse_comparison_chain;
          tc "subscripts" `Quick test_parse_subscripts;
          tc "call and tuple" `Quick test_parse_call_and_tuple;
          tc "if/elseif" `Quick test_parse_if_elseif;
          tc "for range" `Quick test_parse_for_range;
          tc "parallel for" `Quick test_parse_parallel_for;
          tc "parallel for ordered" `Quick test_parse_parallel_for_ordered;
          tc "op-assign index" `Quick test_parse_op_assign_index;
          tc "missing end" `Quick test_parse_error_missing_end;
          tc "broadcast assign" `Quick test_parse_broadcast_assign;
        ] );
      ( "pretty",
        [
          tc "roundtrip samples" `Quick test_pretty_roundtrip_samples;
          qc (test_expr_roundtrip_qcheck ());
          tc "seeded program roundtrip" `Quick test_program_roundtrip_seeded;
        ] );
      ( "interp",
        [
          tc "arith" `Quick test_interp_arith;
          tc "loops" `Quick test_interp_loops;
          tc "while/break" `Quick test_interp_while_break;
          tc "continue" `Quick test_interp_continue;
          tc "vectors" `Quick test_interp_vectors;
          tc "vector ops" `Quick test_interp_vector_ops;
          tc "builtins" `Quick test_interp_builtins;
          tc "rng deterministic" `Quick test_interp_rng_deterministic;
          tc "host call" `Quick test_interp_host_call;
          tc "extern arrays" `Quick test_interp_extern;
          tc "undefined var" `Quick test_interp_error_undefined;
          tc "division by zero" `Quick test_interp_division_by_zero;
          tc "short circuit" `Quick test_interp_short_circuit;
          tc "mf epoch converges" `Quick test_interp_mf_epoch;
          tc "tuples and index values" `Quick test_interp_tuple_and_index_values;
          tc "mod semantics" `Quick test_interp_mod_semantics;
          tc "int pow" `Quick test_interp_int_pow;
          tc "string compare" `Quick test_interp_string_compare;
          tc "vector length mismatch" `Quick test_interp_vector_length_mismatch;
          tc "index non-indexable" `Quick test_interp_index_non_indexable;
          tc "op-assign vector elt" `Quick test_interp_op_assign_vector_element;
          tc "vector range assign" `Quick test_interp_vector_range_assign;
          tc "nested loops" `Quick test_interp_nested_loops;
          tc "elseif execution" `Quick test_interp_elseif_execution;
          tc "unknown function" `Quick test_interp_unknown_function_error;
          tc "error position" `Quick test_interp_error_position;
          tc "error position nested" `Quick test_interp_error_position_nested;
          tc "min/max preserve int" `Quick test_min_max_preserve_int;
          tc "reversed range read positioned" `Quick
            test_reversed_range_read_positioned;
          tc "reversed range assign positioned" `Quick
            test_reversed_range_assign_positioned;
          tc "out-of-bounds range positioned" `Quick
            test_out_of_bounds_range_positioned;
          tc "type error positioned" `Quick test_type_error_positioned;
        ] );
      ( "compile",
        [
          tc "handwritten bodies" `Quick test_compile_handwritten_bodies;
          qc (test_compile_random_bodies_qcheck ());
          tc "ORION_NO_COMPILE" `Quick test_compile_disabled_env_var;
          tc "rejects nested parallel_for" `Quick
            test_compile_rejects_nested_parallel_for;
          tc "dot length mismatch positioned" `Quick
            test_dot_length_mismatch_positioned;
          tc "vector bodies" `Quick test_compile_vector_bodies;
          tc "hooked env does not compile" `Quick
            test_hooked_env_does_not_compile;
          tc "hook after compile refuses to run" `Quick
            test_hook_after_compile_refuses;
          tc "loop_body over a hooked env interprets" `Quick
            test_loop_body_hooked_interprets;
          qc (test_compile_random_vector_bodies_qcheck ());
          tc "block kernel bodies" `Quick test_block_kernel_bodies;
          qc (test_block_kernel_random_qcheck ());
          tc "mf kernel allocation" `Quick test_mf_kernel_allocation;
          tc "scalar kernel allocation" `Quick test_scalar_kernel_allocation;
          tc "index-written array takes fast path" `Quick
            test_index_written_array_takes_fast_path;
        ] );
      ( "check",
        [
          tc "clean program" `Quick test_check_clean_program;
          tc "undefined variable" `Quick test_check_undefined_variable;
          tc "maybe undefined" `Quick test_check_maybe_undefined;
          tc "both branches define" `Quick test_check_defined_in_both_branches;
          tc "break outside loop" `Quick test_check_break_outside_loop;
          tc "builtin arity" `Quick test_check_builtin_arity;
          tc "nested parallel_for" `Quick test_check_nested_parallel_for;
          tc "assign loop key" `Quick test_check_assign_loop_key;
          tc "loop body maybe" `Quick test_check_loop_body_definitions_are_maybe;
          tc "mf script clean" `Quick test_check_mf_script_clean;
          tc "diagnostic positions" `Quick test_check_diagnostic_positions;
          tc "position inside block" `Quick test_check_position_inside_block;
        ] );
      ( "profile",
        [
          tc "record and hot lines" `Quick test_profile_record_and_hot_lines;
          tc "interp line hits" `Quick test_profile_interp_line_hits;
          tc "array counters" `Quick test_profile_array_counters;
          tc "report renders" `Quick test_profile_report_renders;
          tc "shard merge" `Quick test_profile_merge;
        ] );
    ]
