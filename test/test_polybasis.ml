(* Unit and property tests for the orthonormal polynomial basis layer. *)

open Polybasis

let check_float = Alcotest.(check (float 1e-9))

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Hermite *)

let test_hermite_low_degrees () =
  (* He_0 = 1, He_1 = x, He_2 = x^2 - 1, He_3 = x^3 - 3x *)
  List.iter
    (fun x ->
      check_float "He0" 1. (Hermite.probabilists 0 x);
      check_float "He1" x (Hermite.probabilists 1 x);
      check_float "He2" ((x *. x) -. 1.) (Hermite.probabilists 2 x);
      check_float "He3" ((x ** 3.) -. (3. *. x)) (Hermite.probabilists 3 x))
    [ -2.3; -1.; 0.; 0.7; 1.9 ]

let test_hermite_normalization_eq4 () =
  (* the paper's eq. 4: g1 = 1, g2 = x, g3 = (x^2 - 1)/sqrt 2 *)
  let x = 1.37 in
  check_float "g1" 1. (Hermite.normalized 0 x);
  check_float "g2" x (Hermite.normalized 1 x);
  check_float "g3" (((x *. x) -. 1.) /. sqrt 2.) (Hermite.normalized 2 x)

let test_hermite_recurrence () =
  (* He_{n+1} = x He_n - n He_{n-1} *)
  let x = 0.83 in
  for n = 1 to 10 do
    check_float "recurrence"
      ((x *. Hermite.probabilists n x)
      -. (float_of_int n *. Hermite.probabilists (n - 1) x))
      (Hermite.probabilists (n + 1) x)
  done

let test_hermite_upto_consistent () =
  let x = -1.4 in
  let batch = Hermite.normalized_upto 8 x in
  for n = 0 to 8 do
    Alcotest.(check (float 1e-10))
      "batch vs single" (Hermite.normalized n x) batch.(n)
  done

let test_hermite_orthonormal_mc () =
  (* E[g_i(X) g_j(X)] = delta_ij by Monte Carlo, degrees 0..4 *)
  let rng = Stats.Rng.create 99 in
  let n = 200000 in
  let acc = Array.make_matrix 5 5 0. in
  for _ = 1 to n do
    let x = Stats.Rng.gaussian rng in
    let g = Hermite.normalized_upto 4 x in
    for i = 0 to 4 do
      for j = 0 to 4 do
        acc.(i).(j) <- acc.(i).(j) +. (g.(i) *. g.(j))
      done
    done
  done;
  for i = 0 to 4 do
    for j = 0 to 4 do
      let v = acc.(i).(j) /. float_of_int n in
      let target = if i = j then 1. else 0. in
      check_bool
        (Printf.sprintf "orthonormal (%d,%d)" i j)
        true
        (Float.abs (v -. target) < 0.05)
    done
  done

let test_hermite_negative_degree () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Hermite.probabilists: negative degree") (fun () ->
      ignore (Hermite.probabilists (-1) 0.))

let test_log_factorial () =
  check_float "0!" 0. (Hermite.log_factorial 0);
  check_float "5!" (log 120.) (Hermite.log_factorial 5)

(* ------------------------------------------------------------------ *)
(* Multi_index *)

let test_multi_index_of_pairs () =
  let t = Multi_index.of_pairs [ (3, 1); (1, 2); (3, 1) ] in
  (* duplicates merge, sorted by variable *)
  Alcotest.(check (list (pair int int))) "normalized" [ (1, 2); (3, 2) ]
    (Array.to_list t);
  check_int "degree" 4 (Multi_index.total_degree t);
  Alcotest.(check (list int)) "variables" [ 1; 3 ] (Multi_index.variables t)

let test_multi_index_constant () =
  check_int "degree 0" 0 (Multi_index.total_degree Multi_index.constant);
  check_int "max var" (-1) (Multi_index.max_variable Multi_index.constant);
  check_bool "zero degrees dropped" true
    (Multi_index.equal Multi_index.constant (Multi_index.of_pairs [ (2, 0) ]))

let test_multi_index_order () =
  (* graded order: degree first, then lexicographic *)
  let c = Multi_index.constant in
  let x0 = Multi_index.linear 0 in
  let x1 = Multi_index.linear 1 in
  let x0sq = Multi_index.pure 0 2 in
  check_bool "c < x0" true (Multi_index.compare c x0 < 0);
  check_bool "x0 < x1" true (Multi_index.compare x0 x1 < 0);
  check_bool "x1 < x0^2" true (Multi_index.compare x1 x0sq < 0);
  check_bool "equal" true (Multi_index.equal x0 (Multi_index.linear 0))

let test_multi_index_remap () =
  let t = Multi_index.of_pairs [ (0, 1); (2, 2) ] in
  let mapped = Multi_index.remap (fun v -> v + 10) t in
  Alcotest.(check (list (pair int int))) "shifted" [ (10, 1); (12, 2) ]
    (Array.to_list mapped);
  Alcotest.check_raises "non-injective"
    (Invalid_argument "Multi_index.remap: map is not injective on this term")
    (fun () -> ignore (Multi_index.remap (fun _ -> 0) t))

let test_multi_index_enumerate () =
  (* C(r + d, d) terms *)
  check_int "r=2 d=2" 6 (List.length (Multi_index.all_up_to_degree ~r:2 ~d:2));
  check_int "r=3 d=3" 20 (List.length (Multi_index.all_up_to_degree ~r:3 ~d:3));
  let all = Multi_index.all_up_to_degree ~r:2 ~d:2 in
  check_bool "starts with constant" true
    (Multi_index.equal (List.hd all) Multi_index.constant);
  (* all distinct *)
  let distinct = List.sort_uniq Multi_index.compare all in
  check_int "distinct" (List.length all) (List.length distinct)

let test_multi_index_pp () =
  let show t = Format.asprintf "%a" Multi_index.pp t in
  Alcotest.(check string) "constant" "1" (show Multi_index.constant);
  Alcotest.(check string) "linear" "x4" (show (Multi_index.linear 4));
  Alcotest.(check string) "product" "x1^2*x3"
    (show (Multi_index.of_pairs [ (3, 1); (1, 2) ]))

(* ------------------------------------------------------------------ *)
(* Basis *)

let test_basis_linear_layout () =
  let b = Basis.linear 4 in
  check_int "size" 5 (Basis.size b);
  check_int "dim" 4 (Basis.dim b);
  let x = [| 1.; 2.; 3.; 4. |] in
  let row = Basis.eval_row b x in
  Alcotest.(check (array (float 1e-12))) "row = 1 :: x" [| 1.; 1.; 2.; 3.; 4. |]
    row

let test_basis_quadratic_diagonal () =
  let b = Basis.quadratic_diagonal 3 in
  check_int "size" 7 (Basis.size b);
  let x = [| 2.; 0.; -1. |] in
  let row = Basis.eval_row b x in
  check_float "constant" 1. row.(0);
  check_float "x0" 2. row.(1);
  check_float "g2(x0)" (((2. *. 2.) -. 1.) /. sqrt 2.) row.(4)

let test_basis_total_degree_matches_enumeration () =
  let b = Basis.total_degree ~r:2 ~d:3 in
  check_int "size C(5,3)" 10 (Basis.size b)

let test_basis_design_matrix () =
  let b = Basis.linear 2 in
  let xs = Linalg.Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let g = Basis.design_matrix b xs in
  Alcotest.(check (pair int int)) "dims" (2, 3) (Linalg.Mat.dims g);
  check_float "g00" 1. (Linalg.Mat.get g 0 0);
  check_float "g01" 1. (Linalg.Mat.get g 0 1);
  check_float "g12" 4. (Linalg.Mat.get g 1 2)

let test_basis_predict () =
  let b = Basis.linear 2 in
  let coeffs = [| 0.5; 2.; -1. |] in
  check_float "predict" (0.5 +. (2. *. 3.) -. 4.)
    (Basis.predict b ~coeffs [| 3.; 4. |]);
  let xs = Linalg.Mat.of_arrays [| [| 3.; 4. |]; [| 0.; 0. |] |] in
  let preds = Basis.predict_many b ~coeffs xs in
  check_float "vectorized" 2.5 preds.(0);
  check_float "at origin" 0.5 preds.(1)

let test_basis_duplicate_rejected () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Basis.of_terms: duplicate term") (fun () ->
      ignore
        (Basis.of_terms ~dim:2 [ Multi_index.linear 0; Multi_index.linear 0 ]))

let test_basis_out_of_range_rejected () =
  Alcotest.check_raises "range"
    (Invalid_argument "Basis.of_terms: term references variable out of range")
    (fun () -> ignore (Basis.of_terms ~dim:2 [ Multi_index.linear 5 ]))

let test_basis_extend () =
  let b = Basis.linear 2 in
  let b2 = Basis.extend b [ Multi_index.linear 5 ] in
  check_int "grown size" 4 (Basis.size b2);
  check_int "grown dim" 6 (Basis.dim b2);
  (* old positions stable *)
  check_bool "position 1 unchanged" true
    (Multi_index.equal (Basis.term b2 1) (Basis.term b 1));
  Alcotest.(check (option int)) "find new" (Some 3)
    (Basis.index_of_term b2 (Multi_index.linear 5));
  Alcotest.check_raises "duplicate extend"
    (Invalid_argument "Basis.extend: term already present") (fun () ->
      ignore (Basis.extend b [ Multi_index.linear 0 ]))

let test_basis_index_of_term () =
  let b = Basis.linear 3 in
  Alcotest.(check (option int)) "constant" (Some 0)
    (Basis.index_of_term b Multi_index.constant);
  Alcotest.(check (option int)) "x2" (Some 3)
    (Basis.index_of_term b (Multi_index.linear 2));
  Alcotest.(check (option int)) "absent" None
    (Basis.index_of_term b (Multi_index.pure 0 2))

let test_basis_orthonormality_quadratic_mc () =
  (* design-matrix columns are empirically orthonormal for a full
     quadratic basis in 2 variables *)
  let b = Basis.total_degree ~r:2 ~d:2 in
  let rng = Stats.Rng.create 123 in
  let k = 150000 in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r:2 in
  let g = Basis.design_matrix b xs in
  let gram = Linalg.Mat.gram g in
  let m = Basis.size b in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      let v = Linalg.Mat.get gram i j /. float_of_int k in
      let target = if i = j then 1. else 0. in
      check_bool "column orthonormality" true (Float.abs (v -. target) < 0.06)
    done
  done

(* ------------------------------------------------------------------ *)
(* Properties *)

(* [Multi_index.of_pairs] as it was written with a hash table, kept as
   the reference for its sort-and-merge body. *)
let of_pairs_reference pairs =
  List.iter
    (fun (v, d) ->
      if v < 0 then invalid_arg "Multi_index.of_pairs: negative variable";
      if d < 0 then invalid_arg "Multi_index.of_pairs: negative degree")
    pairs;
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, d) ->
      let cur = try Hashtbl.find tbl v with Not_found -> 0 in
      Hashtbl.replace tbl v (cur + d))
    pairs;
  let entries =
    Hashtbl.fold (fun v d acc -> if d > 0 then (v, d) :: acc else acc) tbl []
  in
  let arr = Array.of_list entries in
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) arr;
  arr

let qcheck_tests =
  let open QCheck in
  let outcome f pairs =
    match f pairs with t -> Ok t | exception Invalid_argument m -> Error m
  in
  [
    Test.make ~name:"hermite-parity" ~count:200
      (make Gen.(pair (int_range 0 10) (float_range (-3.) 3.)))
      (fun (n, x) ->
        let sign = if n mod 2 = 0 then 1. else -1. in
        Float.abs
          (Hermite.probabilists n (-.x) -. (sign *. Hermite.probabilists n x))
        < 1e-6 *. Float.max 1. (Float.abs (Hermite.probabilists n x)));
    Test.make ~name:"of-pairs-idempotent" ~count:100
      (make Gen.(small_list (pair (int_range 0 5) (int_range 0 3))))
      (fun pairs ->
        let t = Multi_index.of_pairs pairs in
        Multi_index.equal t (Multi_index.of_pairs (Array.to_list t)));
    Test.make ~name:"degree-additive-under-merge" ~count:100
      (make Gen.(small_list (pair (int_range 0 5) (int_range 1 3))))
      (fun pairs ->
        let t = Multi_index.of_pairs pairs in
        Multi_index.total_degree t
        = List.fold_left (fun a (_, d) -> a + d) 0 pairs);
    Test.make ~name:"eval-row-head-is-one" ~count:50
      (make Gen.(array_size (return 4) (float_range (-3.) 3.)))
      (fun x ->
        let b = Basis.linear 4 in
        (Basis.eval_row b x).(0) = 1.);
    (* duplicates, zero degrees, unsorted and sorted runs, and the odd
       negative variable or degree, whose message must match too *)
    Test.make ~name:"of-pairs-matches-reference" ~count:2000
      (make
         ~print:Print.(list (pair int int))
         Gen.(
           list_size (int_range 0 12)
             (pair (int_range (-1) 9) (int_range (-1) 3))))
      (fun pairs ->
        outcome Multi_index.of_pairs pairs = outcome of_pairs_reference pairs);
  ]

let () =
  Alcotest.run "polybasis"
    [
      ( "hermite",
        [
          Alcotest.test_case "low degrees" `Quick test_hermite_low_degrees;
          Alcotest.test_case "eq 4 normalization" `Quick
            test_hermite_normalization_eq4;
          Alcotest.test_case "recurrence" `Quick test_hermite_recurrence;
          Alcotest.test_case "batch" `Quick test_hermite_upto_consistent;
          Alcotest.test_case "orthonormal (MC)" `Slow
            test_hermite_orthonormal_mc;
          Alcotest.test_case "negative degree" `Quick
            test_hermite_negative_degree;
          Alcotest.test_case "log factorial" `Quick test_log_factorial;
        ] );
      ( "multi_index",
        [
          Alcotest.test_case "of_pairs" `Quick test_multi_index_of_pairs;
          Alcotest.test_case "constant" `Quick test_multi_index_constant;
          Alcotest.test_case "graded order" `Quick test_multi_index_order;
          Alcotest.test_case "remap" `Quick test_multi_index_remap;
          Alcotest.test_case "enumerate" `Quick test_multi_index_enumerate;
          Alcotest.test_case "pp" `Quick test_multi_index_pp;
        ] );
      ( "basis",
        [
          Alcotest.test_case "linear layout" `Quick test_basis_linear_layout;
          Alcotest.test_case "quadratic diagonal" `Quick
            test_basis_quadratic_diagonal;
          Alcotest.test_case "total degree" `Quick
            test_basis_total_degree_matches_enumeration;
          Alcotest.test_case "design matrix" `Quick test_basis_design_matrix;
          Alcotest.test_case "predict" `Quick test_basis_predict;
          Alcotest.test_case "duplicate rejected" `Quick
            test_basis_duplicate_rejected;
          Alcotest.test_case "range rejected" `Quick
            test_basis_out_of_range_rejected;
          Alcotest.test_case "extend" `Quick test_basis_extend;
          Alcotest.test_case "index_of_term" `Quick test_basis_index_of_term;
          Alcotest.test_case "orthonormality (MC)" `Slow
            test_basis_orthonormality_quadratic_mc;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
