(* Unit and property tests for the dense/sparse linear algebra layer. *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rng = Stats.Rng.create 12345

let random_vec n = Stats.Rng.gaussian_vec rng n

let random_mat r c = Mat.init r c (fun _ _ -> Stats.Rng.gaussian rng)

(* A well-conditioned SPD matrix: B^T B + 2I. *)
let random_spd n =
  let b = random_mat n n in
  Mat.add_diag (Mat.gram b) (Array.make n 2.)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.; 2.; 3. ] in
  check_int "dim" 3 (Vec.dim v);
  check_float "dot" 14. (Vec.dot v v);
  check_float "nrm2" (sqrt 14.) (Vec.nrm2 v);
  check_float "norm1" 6. (Vec.norm1 v);
  check_float "norm_inf" 3. (Vec.norm_inf v);
  check_float "sum" 6. (Vec.sum v);
  check_float "mean" 2. (Vec.mean v);
  check_float "min" 1. (Vec.min v);
  check_float "max" 3. (Vec.max v)

let test_vec_ops () =
  let x = Vec.of_list [ 1.; -2.; 3. ] and y = Vec.of_list [ 4.; 5.; -6. ] in
  check_bool "add" true (Vec.approx_equal (Vec.add x y) [| 5.; 3.; -3. |]);
  check_bool "sub" true (Vec.approx_equal (Vec.sub x y) [| -3.; -7.; 9. |]);
  check_bool "mul" true (Vec.approx_equal (Vec.mul x y) [| 4.; -10.; -18. |]);
  check_bool "scale" true (Vec.approx_equal (Vec.scale 2. x) [| 2.; -4.; 6. |]);
  check_bool "neg" true (Vec.approx_equal (Vec.neg x) [| -1.; 2.; -3. |]);
  let z = Vec.copy y in
  Vec.axpy 2. x z;
  check_bool "axpy" true (Vec.approx_equal z [| 6.; 1.; 0. |]);
  check_int "argmax_abs" 1 (Vec.argmax_abs [| 1.; -5.; 3. |])

let test_vec_nrm2_overflow () =
  (* naive sum of squares would overflow at 1e200 *)
  let v = [| 1e200; 1e200 |] in
  check_bool "no overflow" true (Float.is_finite (Vec.nrm2 v));
  Alcotest.(check (float 1e190))
    "scaled norm" (1e200 *. sqrt 2.) (Vec.nrm2 v)

let test_vec_rel_error () =
  check_float "identical" 0. (Vec.rel_error [| 1.; 2. |] [| 1.; 2. |]);
  check_float "zero exact" (sqrt 2.) (Vec.rel_error [| 1.; 1. |] [| 0.; 0. |]);
  check_float "half" 0.5 (Vec.rel_error [| 1.5 |] [| 1. |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "dot" (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_empty () =
  check_float "sum empty" 0. (Vec.sum [||]);
  check_float "nrm2 empty" 0. (Vec.nrm2 [||]);
  Alcotest.check_raises "mean empty" (Invalid_argument "Vec.mean: empty vector")
    (fun () -> ignore (Vec.mean [||]))

let test_vec_kahan () =
  (* compensated summation keeps 1 + 1e-16 * n accurate *)
  let n = 100000 in
  let v = Array.make (n + 1) 1e-12 in
  v.(0) <- 1.;
  let expected = 1. +. (1e-12 *. float_of_int n) in
  Alcotest.(check (float 1e-15)) "kahan" expected (Vec.sum v)

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_basic () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_int "rows" 2 (Mat.rows a);
  check_int "cols" 2 (Mat.cols a);
  check_float "get" 3. (Mat.get a 1 0);
  let t = Mat.transpose a in
  check_float "transpose" 2. (Mat.get t 1 0);
  check_bool "row" true (Vec.approx_equal (Mat.row a 0) [| 1.; 2. |]);
  check_bool "col" true (Vec.approx_equal (Mat.col a 1) [| 2.; 4. |]);
  check_bool "diag" true (Vec.approx_equal (Mat.diag a) [| 1.; 4. |])

let test_mat_gemv () =
  let a = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  check_bool "gemv" true
    (Vec.approx_equal (Mat.gemv a [| 1.; 1.; 1. |]) [| 6.; 15. |]);
  check_bool "gemv_t" true
    (Vec.approx_equal (Mat.gemv_t a [| 1.; 1. |]) [| 5.; 7.; 9. |])

let test_mat_gemm_identity () =
  let a = random_mat 7 7 in
  check_bool "a*I = a" true (Mat.approx_equal (Mat.gemm a (Mat.identity 7)) a);
  check_bool "I*a = a" true (Mat.approx_equal (Mat.gemm (Mat.identity 7) a) a)

let test_mat_gemm_assoc () =
  let a = random_mat 4 5 and b = random_mat 5 6 and c = random_mat 6 3 in
  let left = Mat.gemm (Mat.gemm a b) c in
  let right = Mat.gemm a (Mat.gemm b c) in
  check_bool "(ab)c = a(bc)" true (Mat.approx_equal ~tol:1e-8 left right)

let test_mat_gram () =
  let a = random_mat 6 4 in
  let expected = Mat.gemm (Mat.transpose a) a in
  check_bool "gram = a^T a" true (Mat.approx_equal (Mat.gram a) expected);
  check_bool "gram symmetric" true (Mat.is_symmetric (Mat.gram a))

let test_mat_weighted_gram () =
  let a = random_mat 5 3 in
  let w = [| 0.5; 2.; 1.5; 0.1; 3. |] in
  let expected =
    Mat.gemm (Mat.transpose a) (Mat.init 5 3 (fun i j -> w.(i) *. Mat.get a i j))
  in
  check_bool "weighted gram" true
    (Mat.approx_equal (Mat.weighted_gram a w) expected)

let test_mat_outer_gram () =
  let a = random_mat 3 8 in
  let expected = Mat.gemm a (Mat.transpose a) in
  check_bool "outer gram" true (Mat.approx_equal (Mat.outer_gram a) expected);
  let w = Array.init 8 (fun i -> 0.3 +. float_of_int i) in
  let aw = Mat.mul_cols a w in
  let expected_w = Mat.gemm aw (Mat.transpose a) in
  check_bool "weighted outer gram" true
    (Mat.approx_equal (Mat.weighted_outer_gram a w) expected_w)

let test_mat_add_diag () =
  let a = random_mat 4 4 in
  let d = [| 1.; 2.; 3.; 4. |] in
  let b = Mat.add_diag a d in
  for i = 0 to 3 do
    check_float "diag entry" (Mat.get a i i +. d.(i)) (Mat.get b i i)
  done;
  check_float "off diag unchanged" (Mat.get a 0 1) (Mat.get b 0 1)

let test_mat_swap_rows () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  Mat.swap_rows a 0 2;
  check_bool "swapped" true (Vec.approx_equal (Mat.row a 0) [| 5.; 6. |]);
  check_bool "swapped back row" true (Vec.approx_equal (Mat.row a 2) [| 1.; 2. |])

let test_mat_bad_dims () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Mat.of_arrays: ragged rows") (fun () ->
      ignore (Mat.of_arrays [| [| 1. |]; [| 1.; 2. |] |]));
  let a = random_mat 2 3 and b = random_mat 2 3 in
  Alcotest.check_raises "gemm mismatch"
    (Invalid_argument "Mat.gemm: dimension mismatch (2x3 * 2x3)") (fun () ->
      ignore (Mat.gemm a b))

(* ------------------------------------------------------------------ *)
(* Cholesky *)

let test_cholesky_reconstruct () =
  let a = random_spd 8 in
  let f = Cholesky.factorize a in
  let l = Cholesky.factor f in
  let back = Mat.gemm l (Mat.transpose l) in
  check_bool "l l^T = a" true (Mat.approx_equal ~tol:1e-8 back a)

let test_cholesky_solve () =
  let a = random_spd 10 in
  let x_true = random_vec 10 in
  let b = Mat.gemv a x_true in
  let x = Cholesky.solve_system a b in
  check_bool "solution" true (Vec.approx_equal ~tol:1e-7 x x_true)

let test_cholesky_solve_mat () =
  let a = random_spd 6 in
  let f = Cholesky.factorize a in
  let inv = Cholesky.inverse f in
  check_bool "a * a^-1 = I" true
    (Mat.approx_equal ~tol:1e-7 (Mat.gemm a inv) (Mat.identity 6))

let test_cholesky_log_det () =
  let a = Mat.of_diag [| 2.; 3.; 4. |] in
  let f = Cholesky.factorize a in
  check_float "log det" (log 24.) (Cholesky.log_det f)

let test_cholesky_not_pd () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (* eigenvalues 3 and -1 *)
  check_bool "raises" true
    (try
       ignore (Cholesky.factorize a);
       false
     with Cholesky.Not_positive_definite _ -> true)

(* ------------------------------------------------------------------ *)
(* LU *)

let test_lu_solve () =
  let a = random_mat 9 9 in
  let x_true = random_vec 9 in
  let b = Mat.gemv a x_true in
  let x = Lu.solve_system a b in
  check_bool "solution" true (Vec.approx_equal ~tol:1e-6 x x_true)

let test_lu_needs_pivoting () =
  (* zero pivot in position (0,0) requires row exchange *)
  let a = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Lu.solve_system a [| 2.; 3. |] in
  check_bool "pivoted solve" true (Vec.approx_equal x [| 3.; 2. |])

let test_lu_det () =
  let a = Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 3. |] |] in
  check_float "diag det" 6. (Lu.det (Lu.factorize a));
  let p = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_float "permutation det" (-1.) (Lu.det (Lu.factorize p))

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  check_bool "raises" true
    (try
       ignore (Lu.factorize a);
       false
     with Lu.Singular _ -> true)

let test_lu_inverse () =
  let a = random_mat 5 5 in
  let inv = Lu.inverse (Lu.factorize a) in
  check_bool "inverse" true
    (Mat.approx_equal ~tol:1e-7 (Mat.gemm a inv) (Mat.identity 5))

(* ------------------------------------------------------------------ *)
(* QR *)

let test_qr_thin_orthonormal () =
  let a = random_mat 12 5 in
  let f = Qr.factorize a in
  let q = Qr.q_thin f in
  let qtq = Mat.gram q in
  check_bool "q^T q = I" true (Mat.approx_equal ~tol:1e-8 qtq (Mat.identity 5))

let test_qr_reconstruct () =
  let a = random_mat 10 4 in
  let f = Qr.factorize a in
  let back = Mat.gemm (Qr.q_thin f) (Qr.r f) in
  check_bool "qr = a" true (Mat.approx_equal ~tol:1e-8 back a)

let test_qr_least_squares_exact () =
  let a = random_mat 8 8 in
  let x_true = random_vec 8 in
  let b = Mat.gemv a x_true in
  check_bool "square solve" true
    (Vec.approx_equal ~tol:1e-6 (Qr.least_squares a b) x_true)

let test_qr_least_squares_overdetermined () =
  (* the LS solution satisfies the normal equations *)
  let a = random_mat 20 6 in
  let b = random_vec 20 in
  let x = Qr.least_squares a b in
  let residual = Vec.sub (Mat.gemv a x) b in
  let grad = Mat.gemv_t a residual in
  check_bool "normal equations" true
    (Vec.approx_equal ~tol:1e-8 grad (Array.make 6 0.))

let test_qr_residual_norm () =
  let a = random_mat 15 4 in
  let b = random_vec 15 in
  let f = Qr.factorize a in
  let x = Qr.solve_ls f b in
  let expected = Vec.nrm2 (Vec.sub (Mat.gemv a x) b) in
  Alcotest.(check (float 1e-8)) "residual" expected (Qr.residual_norm f b)

let test_qr_underdetermined_rejected () =
  let a = random_mat 3 5 in
  Alcotest.check_raises "rows < cols"
    (Invalid_argument "Qr.factorize: need rows >= cols") (fun () ->
      ignore (Qr.factorize a))

(* ------------------------------------------------------------------ *)
(* Woodbury *)

let test_woodbury_matches_direct () =
  let k = 4 and m = 30 in
  let g = random_mat k m in
  let d = Array.init m (fun i -> 0.5 +. (0.1 *. float_of_int i)) in
  let scale = 0.8 in
  let b = random_vec m in
  let full = Mat.add_diag (Mat.scale scale (Mat.gram g)) d in
  let expected = Cholesky.solve_system full b in
  let got = Woodbury.solve_system ~d ~g ~scale b in
  check_bool "exact" true (Vec.approx_equal ~tol:1e-8 got expected)

let test_woodbury_many_rhs () =
  let k = 3 and m = 12 in
  let g = random_mat k m in
  let d = Array.make m 1.5 in
  let f = Woodbury.factorize ~d ~g ~scale:1. in
  check_int "dim" m (Woodbury.dim f);
  check_int "rank" k (Woodbury.rank f);
  let bs = [ random_vec m; random_vec m ] in
  let xs = Woodbury.solve_many f bs in
  let full = Mat.add_diag (Mat.gram g) d in
  List.iter2
    (fun x b ->
      check_bool "rhs" true
        (Vec.approx_equal ~tol:1e-8 (Mat.gemv full x) b))
    xs bs

let test_woodbury_rejects_bad_inputs () =
  let g = random_mat 2 5 in
  Alcotest.check_raises "nonpositive d"
    (Invalid_argument "Woodbury.factorize: d.(1) must be positive") (fun () ->
      ignore (Woodbury.factorize ~d:[| 1.; 0.; 1.; 1.; 1. |] ~g ~scale:1.));
  Alcotest.check_raises "nonpositive scale"
    (Invalid_argument "Woodbury.factorize: scale must be positive and finite")
    (fun () -> ignore (Woodbury.factorize ~d:(Array.make 5 1.) ~g ~scale:0.))

(* ------------------------------------------------------------------ *)
(* Sparse *)

let test_sparse_roundtrip () =
  let dense = random_mat 5 7 in
  let sp = Sparse.of_dense dense in
  check_bool "roundtrip" true (Mat.approx_equal (Sparse.to_dense sp) dense)

let test_sparse_duplicate_sum () =
  let sp =
    Sparse.of_triplets ~rows:2 ~cols:2
      [
        { Sparse.row = 0; col = 0; value = 1. };
        { Sparse.row = 0; col = 0; value = 2.5 };
        { Sparse.row = 1; col = 1; value = -1. };
      ]
  in
  check_float "summed" 3.5 (Sparse.get sp 0 0);
  check_float "single" (-1.) (Sparse.get sp 1 1);
  check_float "absent" 0. (Sparse.get sp 0 1);
  check_int "nnz" 2 (Sparse.nnz sp)

let test_sparse_mv () =
  let dense = random_mat 6 4 in
  let sp = Sparse.of_dense dense in
  let x = random_vec 4 and y = random_vec 6 in
  check_bool "mv" true (Vec.approx_equal (Sparse.mv sp x) (Mat.gemv dense x));
  check_bool "mv_t" true
    (Vec.approx_equal (Sparse.mv_t sp y) (Mat.gemv_t dense y))

let test_sparse_bounds () =
  Alcotest.check_raises "range"
    (Invalid_argument "Sparse.of_triplets: index (2, 0) out of 2x2")
    (fun () ->
      ignore
        (Sparse.of_triplets ~rows:2 ~cols:2
           [ { Sparse.row = 2; col = 0; value = 1. } ]))

(* ------------------------------------------------------------------ *)
(* Vec/Mat odds and ends *)

let test_vec_slice_concat () =
  let v = [| 1.; 2.; 3.; 4.; 5. |] in
  check_bool "slice" true (Vec.approx_equal (Vec.slice v 1 3) [| 2.; 3.; 4. |]);
  check_bool "concat" true
    (Vec.approx_equal (Vec.concat [ [| 1. |]; [| 2.; 3. |] ]) [| 1.; 2.; 3. |]);
  let doubled = Vec.mapi (fun i x -> float_of_int i +. x) v in
  check_bool "mapi" true (Vec.approx_equal doubled [| 1.; 3.; 5.; 7.; 9. |]);
  check_float "fold" 15. (Vec.fold ( +. ) 0. v);
  let acc = ref 0. in
  Vec.iteri (fun i x -> acc := !acc +. (float_of_int i *. x)) v;
  check_float "iteri" 40. !acc

let test_vec_scale_inplace_and_fill () =
  let v = [| 1.; 2. |] in
  Vec.scale_inplace 3. v;
  check_bool "scale inplace" true (Vec.approx_equal v [| 3.; 6. |]);
  Vec.fill v 7.;
  check_bool "fill" true (Vec.approx_equal v [| 7.; 7. |]);
  let w = [| 1.; 1. |] in
  Vec.add_inplace w v;
  check_bool "add inplace" true (Vec.approx_equal v [| 8.; 8. |]);
  Vec.sub_inplace w v;
  check_bool "sub inplace" true (Vec.approx_equal v [| 7.; 7. |])

let test_vec_pp_smoke () =
  let s = Format.asprintf "%a" Vec.pp (Array.init 20 float_of_int) in
  check_bool "truncates" true (String.length s < 120);
  check_bool "mentions length" true
    (try ignore (Str.search_forward (Str.regexp_string "(20)") s 0); true
     with Not_found -> false)

let test_mat_of_rows_and_setters () =
  let a = Mat.of_rows [ [| 1.; 2. |]; [| 3.; 4. |] ] in
  Mat.set_row a 0 [| 9.; 8. |];
  check_bool "set_row" true (Vec.approx_equal (Mat.row a 0) [| 9.; 8. |]);
  Mat.set_col a 1 [| 5.; 6. |];
  check_float "set_col" 6. (Mat.get a 1 1);
  Alcotest.check_raises "set_row length"
    (Invalid_argument "Mat.set_row: length mismatch") (fun () ->
      Mat.set_row a 0 [| 1. |]);
  let b = Mat.map (fun x -> 2. *. x) a in
  check_float "map" 18. (Mat.get b 0 0);
  check_float "frobenius" (Vec.nrm2 [| 18.; 10.; 6.; 12. |])
    (Mat.frobenius b);
  let s = Format.asprintf "%a" Mat.pp a in
  check_bool "pp smoke" true (String.length s > 10)

let test_mat_of_diag_identity_scale () =
  let d = Mat.of_diag [| 1.; 2.; 3. |] in
  check_bool "diagonal roundtrip" true
    (Vec.approx_equal (Mat.diag d) [| 1.; 2.; 3. |]);
  let s = Mat.scale 2. d in
  check_float "scale" 4. (Mat.get s 1 1);
  let sum = Mat.add d d in
  check_float "add" 6. (Mat.get sum 2 2);
  let diff = Mat.sub sum d in
  check_bool "sub" true (Mat.approx_equal diff d)

(* ------------------------------------------------------------------ *)
(* Properties *)


let qcheck_tests =
  let open QCheck in
  let float_range = Gen.float_range (-10.) 10. in
  let vec_gen n = Gen.array_size (Gen.return n) float_range in
  [
    Test.make ~name:"cauchy-schwarz" ~count:200
      (make (Gen.pair (vec_gen 6) (vec_gen 6)))
      (fun (x, y) ->
        Float.abs (Vec.dot x y) <= (Vec.nrm2 x *. Vec.nrm2 y) +. 1e-6);
    Test.make ~name:"triangle-inequality" ~count:200
      (make (Gen.pair (vec_gen 5) (vec_gen 5)))
      (fun (x, y) ->
        Vec.nrm2 (Vec.add x y) <= Vec.nrm2 x +. Vec.nrm2 y +. 1e-9);
    Test.make ~name:"transpose-involution" ~count:50
      (make (Gen.array_size (Gen.return 12) float_range))
      (fun data ->
        let a = Mat.init 3 4 (fun i j -> data.((i * 4) + j)) in
        Mat.approx_equal (Mat.transpose (Mat.transpose a)) a);
    Test.make ~name:"gemv-linearity" ~count:100
      (make Gen.(triple (vec_gen 4) (vec_gen 4) (vec_gen 12)))
      (fun (x, y, data) ->
        let a = Mat.init 3 4 (fun i j -> data.((i * 4) + j)) in
        Vec.approx_equal ~tol:1e-6
          (Mat.gemv a (Vec.add x y))
          (Vec.add (Mat.gemv a x) (Mat.gemv a y)));
    Test.make ~name:"lu-solves-random-systems" ~count:50
      (make (Gen.array_size (Gen.return 20) (Gen.float_range 0.5 3.)))
      (fun data ->
        (* diagonally dominant, hence nonsingular *)
        let a =
          Mat.init 4 4 (fun i j ->
              if i = j then 10. +. data.((i * 4) + j)
              else data.((i * 4) + j) -. 1.5)
        in
        let x = Array.sub data 16 4 in
        let b = Mat.gemv a x in
        Vec.approx_equal ~tol:1e-6 (Lu.solve_system a b) x);
    Test.make ~name:"cholesky-energy-positive" ~count:50
      (make (Gen.array_size (Gen.return 16) float_range))
      (fun data ->
        let b = Mat.init 4 4 (fun i j -> data.((i * 4) + j)) in
        let a = Mat.add_diag (Mat.gram b) (Array.make 4 1.) in
        let f = Cholesky.factorize a in
        ignore (Cholesky.factor f);
        true);
    (* every [_into] kernel must be bitwise identical to its allocating
       twin, writing only the contracted prefix of a longer buffer. The
       twins of [gemv_into] and [solve_into] are wrappers over the same
       body, so those two are also held to a left-to-right reference
       written here over [Mat.get] with a local accumulator: only an
       independent reference pins the summation order. *)
    Test.make ~name:"gemv_into-bitwise-gemv" ~count:100
      (make
         Gen.(
           pair (int_range 1 9) (int_range 1 40) >>= fun (r, c) ->
           pair (return (r, c)) (vec_gen ((r * c) + c))))
      (fun ((r, c), data) ->
        let a = Mat.init r c (fun i j -> data.((i * c) + j)) in
        let x = Array.sub data (r * c) c in
        let expect =
          Array.init r (fun i ->
              let acc = ref 0. in
              for j = 0 to c - 1 do
                acc := !acc +. (Mat.get a i j *. x.(j))
              done;
              !acc)
        in
        let y = Array.make (r + 2) nan in
        Mat.gemv_into a x y;
        Array.for_all2 Float.equal expect (Array.sub y 0 r)
        && Array.for_all2 Float.equal expect (Mat.gemv a x)
        && Float.is_nan y.(r) && Float.is_nan y.(r + 1));
    Test.make ~name:"gemv_t_into-bitwise-gemv_t" ~count:100
      (make Gen.(pair (vec_gen 3) (vec_gen 12)))
      (fun (x, data) ->
        let a = Mat.init 3 4 (fun i j -> data.((i * 4) + j)) in
        let expect = Mat.gemv_t a x in
        let y = Array.make 6 nan in
        Mat.gemv_t_into a x y;
        Array.for_all2 Float.equal expect (Array.sub y 0 4));
    Test.make ~name:"gemm_into-bitwise-gemm" ~count:50
      (make Gen.(pair (vec_gen 12) (vec_gen 8)))
      (fun (da, db) ->
        let a = Mat.init 3 4 (fun i j -> da.((i * 4) + j)) in
        let b = Mat.init 4 2 (fun i j -> db.((i * 2) + j)) in
        let c = Mat.create 3 2 in
        Mat.gemm_into a b c;
        Mat.equal (Mat.gemm a b) c);
    Test.make ~name:"vec-into-twins-bitwise" ~count:100
      (make Gen.(pair (vec_gen 6) (vec_gen 6)))
      (fun (x, y) ->
        let dst = Array.make 6 nan in
        Vec.add_into x y dst;
        let ok_add = Array.for_all2 Float.equal (Vec.add x y) dst in
        Vec.sub_into x y dst;
        let ok_sub = Array.for_all2 Float.equal (Vec.sub x y) dst in
        Vec.mul_into x y dst;
        let ok_mul = Array.for_all2 Float.equal (Vec.mul x y) dst in
        (* aliasing the destination with an input is part of the
           contract *)
        let expect_alias = Vec.mul x y in
        let x' = Vec.copy x in
        Vec.mul_into x' y x';
        ok_add && ok_sub && ok_mul
        && Array.for_all2 Float.equal expect_alias x');
    Test.make ~name:"cholesky-solve_into-bitwise-solve" ~count:50
      (make
         Gen.(
           int_range 1 12 >>= fun n ->
           pair (return n) (vec_gen ((n * n) + n))))
      (fun (n, data) ->
        let m = Mat.init n n (fun i j -> data.((i * n) + j)) in
        let b = Array.sub data (n * n) n in
        let a = Mat.add_diag (Mat.gram m) (Array.make n 1.) in
        let f = Cholesky.factorize a in
        let l = Cholesky.factor f in
        (* forward l y = b, then backward l^T x = y, each subtracting
           left to right *)
        let ey = Array.make n 0. and ex = Array.make n 0. in
        for i = 0 to n - 1 do
          let acc = ref b.(i) in
          for k = 0 to i - 1 do
            acc := !acc -. (Mat.get l i k *. ey.(k))
          done;
          ey.(i) <- !acc /. Mat.get l i i
        done;
        for i = n - 1 downto 0 do
          let acc = ref ey.(i) in
          for k = i + 1 to n - 1 do
            acc := !acc -. (Mat.get l k i *. ex.(k))
          done;
          ex.(i) <- !acc /. Mat.get l i i
        done;
        let y = Array.make (n + 2) nan and dst = Array.make (n + 1) nan in
        Cholesky.solve_into f b ~y ~dst;
        Array.for_all2 Float.equal ey (Array.sub y 0 n)
        && Array.for_all2 Float.equal ex (Array.sub dst 0 n)
        && Array.for_all2 Float.equal ex (Cholesky.solve f b)
        && Float.is_nan dst.(n));
    Test.make ~name:"row_dot-and-col_nrm2-bitwise" ~count:100
      (make Gen.(pair (vec_gen 4) (vec_gen 12)))
      (fun (x, data) ->
        let a = Mat.init 3 4 (fun i j -> data.((i * 4) + j)) in
        let rows_ok = ref true and cols_ok = ref true in
        for i = 0 to 2 do
          if not (Float.equal (Vec.dot (Mat.row a i) x) (Mat.row_dot a i x))
          then rows_ok := false;
          let dst = Array.make 4 nan in
          Mat.row_into a i dst;
          if not (Array.for_all2 Float.equal (Mat.row a i) dst) then
            rows_ok := false
        done;
        for j = 0 to 3 do
          if not (Float.equal (Vec.nrm2 (Mat.col a j)) (Mat.col_nrm2 a j))
          then cols_ok := false
        done;
        !rows_ok && !cols_ok);
    (* rows go four entries at a time plus a one-entry tail; every entry
       must keep the left-to-right order of a reference sum *)
    Test.make ~name:"weighted_outer_gram-bitwise-reference" ~count:50
      (make
         Gen.(
           pair (int_range 1 11) (int_range 1 30) >>= fun (r, c) ->
           pair (return (r, c)) (vec_gen ((r * c) + c))))
      (fun ((r, c), data) ->
        let a = Mat.init r c (fun i j -> data.((i * c) + j)) in
        let w = Array.sub data (r * c) c in
        let g = Mat.weighted_outer_gram a w in
        let ok = ref true in
        for i = 0 to r - 1 do
          for j = 0 to r - 1 do
            let lo = Stdlib.min i j and hi = Stdlib.max i j in
            let acc = ref 0. in
            for t = 0 to c - 1 do
              acc := !acc +. (Mat.get a lo t *. w.(t) *. Mat.get a hi t)
            done;
            if not (Float.equal !acc (Mat.get g i j)) then ok := false
          done
        done;
        !ok);
    (* the unweighted gram fast paths must match the all-ones weighted
       kernels bit for bit (1 * x is exactly x in IEEE) *)
    Test.make ~name:"gram-fast-path-bitwise" ~count:50
      (make (Gen.array_size (Gen.return 12) float_range))
      (fun data ->
        let a = Mat.init 3 4 (fun i j -> data.((i * 4) + j)) in
        Mat.equal (Mat.gram a) (Mat.weighted_gram a (Array.make 3 1.))
        && Mat.equal (Mat.outer_gram a)
             (Mat.weighted_outer_gram a (Array.make 4 1.)));
  ]

(* Storage-plane invariants of the Bigarray-backed matrices: flat
   round-trips, row blits, and capacity views that share storage. *)
let test_mat_flat_roundtrip_and_views () =
  let a = Mat.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  let flat = Mat.to_flat a in
  check_bool "to_flat/of_flat round-trip" true
    (Mat.equal a (Mat.of_flat ~rows:3 ~cols:4 flat));
  check_bool "of_flat rejects bad length" true
    (try
       ignore (Mat.of_flat ~rows:2 ~cols:4 flat);
       false
     with Invalid_argument _ -> true);
  (* a view shares storage: writes through the view land in the arena *)
  let arena = Mat.create 8 4 in
  let view = Mat.view_rows arena 3 in
  Mat.blit_rows ~src:a ~dst:view ~dst_row:0;
  check_bool "view shares storage" true
    (Float.equal (Mat.get arena 2 3) 23.);
  check_bool "copy of a view is tight" true
    (Mat.equal a (Mat.copy view));
  check_bool "view_rows rejects over-capacity" true
    (try
       ignore (Mat.view_rows arena 9);
       false
     with Invalid_argument _ -> true);
  (* blit_rows places rows at an offset and refuses overflow *)
  Mat.blit_rows ~src:a ~dst:arena ~dst_row:5;
  check_bool "blit at offset" true (Float.equal (Mat.get arena 5 0) 0.);
  check_bool "blit at offset end" true (Float.equal (Mat.get arena 7 3) 23.);
  check_bool "blit_rows rejects overflow" true
    (try
       Mat.blit_rows ~src:a ~dst:arena ~dst_row:6;
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "ops" `Quick test_vec_ops;
          Alcotest.test_case "nrm2 overflow" `Quick test_vec_nrm2_overflow;
          Alcotest.test_case "rel_error" `Quick test_vec_rel_error;
          Alcotest.test_case "dim mismatch" `Quick test_vec_dim_mismatch;
          Alcotest.test_case "empty" `Quick test_vec_empty;
          Alcotest.test_case "kahan" `Quick test_vec_kahan;
        ] );
      ( "mat",
        [
          Alcotest.test_case "basic" `Quick test_mat_basic;
          Alcotest.test_case "gemv" `Quick test_mat_gemv;
          Alcotest.test_case "gemm identity" `Quick test_mat_gemm_identity;
          Alcotest.test_case "gemm assoc" `Quick test_mat_gemm_assoc;
          Alcotest.test_case "gram" `Quick test_mat_gram;
          Alcotest.test_case "weighted gram" `Quick test_mat_weighted_gram;
          Alcotest.test_case "outer gram" `Quick test_mat_outer_gram;
          Alcotest.test_case "add_diag" `Quick test_mat_add_diag;
          Alcotest.test_case "swap rows" `Quick test_mat_swap_rows;
          Alcotest.test_case "bad dims" `Quick test_mat_bad_dims;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "reconstruct" `Quick test_cholesky_reconstruct;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "inverse" `Quick test_cholesky_solve_mat;
          Alcotest.test_case "log det" `Quick test_cholesky_log_det;
          Alcotest.test_case "not pd" `Quick test_cholesky_not_pd;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve" `Quick test_lu_solve;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "det" `Quick test_lu_det;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
        ] );
      ( "qr",
        [
          Alcotest.test_case "thin orthonormal" `Quick test_qr_thin_orthonormal;
          Alcotest.test_case "reconstruct" `Quick test_qr_reconstruct;
          Alcotest.test_case "square exact" `Quick test_qr_least_squares_exact;
          Alcotest.test_case "overdetermined" `Quick
            test_qr_least_squares_overdetermined;
          Alcotest.test_case "residual norm" `Quick test_qr_residual_norm;
          Alcotest.test_case "underdetermined rejected" `Quick
            test_qr_underdetermined_rejected;
        ] );
      ( "woodbury",
        [
          Alcotest.test_case "matches direct" `Quick test_woodbury_matches_direct;
          Alcotest.test_case "many rhs" `Quick test_woodbury_many_rhs;
          Alcotest.test_case "bad inputs" `Quick test_woodbury_rejects_bad_inputs;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "roundtrip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "duplicates" `Quick test_sparse_duplicate_sum;
          Alcotest.test_case "mv" `Quick test_sparse_mv;
          Alcotest.test_case "bounds" `Quick test_sparse_bounds;
        ] );
      ( "storage",
        [
          Alcotest.test_case "flat round-trips and views" `Quick
            test_mat_flat_roundtrip_and_views;
        ] );
      ( "odds_and_ends",
        [
          Alcotest.test_case "slice/concat/iter" `Quick test_vec_slice_concat;
          Alcotest.test_case "inplace ops" `Quick
            test_vec_scale_inplace_and_fill;
          Alcotest.test_case "vec pp" `Quick test_vec_pp_smoke;
          Alcotest.test_case "mat rows/setters/pp" `Quick
            test_mat_of_rows_and_setters;
          Alcotest.test_case "of_diag/scale/add" `Quick
            test_mat_of_diag_identity_scale;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
