(* Unit and property tests for the baseline regression methods. *)

let check_float = Alcotest.(check (float 1e-9))

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rng = Stats.Rng.create 777

(* A reproducible sparse linear problem: k samples, m features (linear
   basis columns), sparse truth, optional noise. *)
let make_problem ?(noise = 0.) ~k ~r ~truth () =
  let basis = Polybasis.Basis.linear r in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let f =
    Array.init k (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) truth
        +. (noise *. Stats.Rng.gaussian rng))
  in
  (basis, xs, g, f)

let sparse_truth m =
  let t = Array.make m 0. in
  t.(0) <- 3.;
  t.(2) <- 1.5;
  t.(7) <- -2.;
  t.(11) <- 0.75;
  t

(* ------------------------------------------------------------------ *)
(* Model *)

let test_model_create_and_predict () =
  let basis = Polybasis.Basis.linear 2 in
  let model = Regression.Model.create basis [| 1.; 2.; 3. |] in
  check_int "terms" 3 (Regression.Model.num_terms model);
  check_float "predict" (1. +. 2. +. 3.)
    (Regression.Model.predict model [| 1.; 1. |]);
  Alcotest.check_raises "length"
    (Invalid_argument "Model.create: coefficient length mismatch") (fun () ->
      ignore (Regression.Model.create basis [| 1. |]))

let test_model_sparsity_and_dominant () =
  let basis = Polybasis.Basis.linear 4 in
  let model = Regression.Model.create basis [| 0.; 5.; 0.; -7.; 1e-15 |] in
  check_int "sparsity" 2 (Regression.Model.sparsity model);
  match Regression.Model.dominant_terms ~count:2 model with
  | [ (i1, v1); (i2, v2) ] ->
      check_int "largest" 3 i1;
      check_float "value" (-7.) v1;
      check_int "second" 1 i2;
      check_float "value2" 5. v2
  | _ -> Alcotest.fail "expected two terms"

let test_model_relative_test_error () =
  let truth = sparse_truth 13 in
  let basis, xs, _, f = make_problem ~k:50 ~r:12 ~truth () in
  let model = Regression.Model.create basis truth in
  check_float "zero error on clean data" 0.
    (Regression.Model.relative_test_error model ~xs ~f)

(* ------------------------------------------------------------------ *)
(* Least squares *)

let test_ls_exact_recovery () =
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:60 ~r:12 ~truth () in
  let coeffs = Regression.Least_squares.fit_design ~g ~f in
  check_bool "recovered" true (Linalg.Vec.approx_equal ~tol:1e-8 coeffs truth)

let test_ls_underdetermined_rejected () =
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:8 ~r:12 ~truth () in
  Alcotest.check_raises "underdetermined"
    (Invalid_argument
       "Least_squares.fit_design: underdetermined (8 samples, 13 bases)")
    (fun () -> ignore (Regression.Least_squares.fit_design ~g ~f))

let test_ls_noise_attenuation () =
  (* with many samples the LS estimate converges to the truth *)
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~noise:0.5 ~k:4000 ~r:12 ~truth () in
  let coeffs = Regression.Least_squares.fit_design ~g ~f in
  check_bool "close" true (Linalg.Vec.dist2 coeffs truth < 0.1)

(* ------------------------------------------------------------------ *)
(* OMP *)

let test_omp_exact_support_recovery () =
  let truth = sparse_truth 41 in
  let _, _, g, f = make_problem ~k:60 ~r:40 ~truth () in
  let result = Regression.Omp.fit_design ~g ~f (Regression.Omp.Max_terms 4) in
  let support = List.sort compare (Array.to_list result.support) in
  Alcotest.(check (list int)) "support" [ 0; 2; 7; 11 ] support;
  check_bool "coefficients" true
    (Linalg.Vec.approx_equal ~tol:1e-8 result.coeffs truth);
  check_int "iterations" 4 result.iterations

let test_omp_residual_stop () =
  let truth = sparse_truth 41 in
  let _, _, g, f = make_problem ~k:60 ~r:40 ~truth () in
  let result = Regression.Omp.fit_design ~g ~f (Regression.Omp.Residual 1e-10) in
  check_bool "small residual" true (result.residual_norm < 1e-8);
  check_bool "few terms" true (result.iterations <= 6)

let test_omp_underdetermined () =
  (* OMP works with far fewer samples than features *)
  let truth = sparse_truth 201 in
  let _, _, g, f = make_problem ~k:40 ~r:200 ~truth () in
  let result = Regression.Omp.fit_design ~g ~f (Regression.Omp.Max_terms 4) in
  check_bool "recovered" true
    (Linalg.Vec.approx_equal ~tol:1e-6 result.coeffs truth)

let test_omp_cv_picks_reasonable_size () =
  let truth = sparse_truth 41 in
  let _, _, g, f = make_problem ~noise:0.05 ~k:80 ~r:40 ~truth () in
  let result =
    Regression.Omp.fit_design ~rng ~g ~f
      (Regression.Omp.Cross_validation { folds = 4; max_terms = 30 })
  in
  check_bool "between 3 and 12 terms" true
    (result.iterations >= 3 && result.iterations <= 12);
  check_bool "error small" true (Linalg.Vec.rel_error result.coeffs truth < 0.05)

let test_omp_max_terms_capped_by_samples () =
  let truth = sparse_truth 31 in
  let _, _, g, f = make_problem ~k:10 ~r:30 ~truth () in
  let result = Regression.Omp.fit_design ~g ~f (Regression.Omp.Max_terms 50) in
  check_bool "at most k terms" true (result.iterations <= 10)

let test_omp_validation () =
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:20 ~r:12 ~truth () in
  Alcotest.check_raises "bad max terms"
    (Invalid_argument "Omp: Max_terms must be positive") (fun () ->
      ignore (Regression.Omp.fit_design ~g ~f (Regression.Omp.Max_terms 0)));
  Alcotest.check_raises "bad folds"
    (Invalid_argument "Omp: need at least 2 folds") (fun () ->
      ignore
        (Regression.Omp.fit_design ~g ~f
           (Regression.Omp.Cross_validation { folds = 1; max_terms = 3 })))

let test_omp_fit_wrapper () =
  let truth = sparse_truth 21 in
  let basis, xs, _, f = make_problem ~k:40 ~r:20 ~truth () in
  let model =
    Regression.Omp.fit ~basis ~xs ~f (Regression.Omp.Max_terms 4)
  in
  check_bool "model coeffs" true
    (Linalg.Vec.approx_equal ~tol:1e-7 (Regression.Model.coeffs model) truth)

(* Golden fingerprints of the coefficients and support under each stop
   rule, on a noisy quadratic problem drawn from its own stream. They
   pin the bits of the greedy path (support-Gram factor, its bordering
   and both triangular solves), which the tables print only to 6
   decimals. Captured before the factor was stored lower-triangular
   and solved through [Linalg.Cholesky]'s substitution bodies. *)
let test_omp_goldens () =
  let rng = Stats.Rng.create 31337 in
  let r = 8 in
  let basis = Polybasis.Basis.total_degree ~r ~d:2 in
  let m = Polybasis.Basis.size basis in
  let truth =
    Array.init m (fun i -> if i mod 5 = 1 then sin (float_of_int i) else 0.)
  in
  let k = 36 in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let f =
    Array.init k (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) truth
        +. (0.05 *. Stats.Rng.gaussian rng))
  in
  let support_string s =
    String.concat "," (Array.to_list (Array.map string_of_int s))
  in
  List.iter
    (fun (name, stop, fp, support) ->
      let res = Regression.Omp.fit_design ~rng ~g ~f stop in
      Alcotest.(check string)
        (name ^ " coefficients") fp
        (Serving.Artifact.fingerprint res.coeffs);
      Alcotest.(check string) (name ^ " support") support
        (support_string res.support))
    [
      ( "max-terms",
        Regression.Omp.Max_terms 7,
        "9a5d32c2eab84505",
        "36,21,1,16,26,11,6" );
      ( "residual",
        Regression.Omp.Residual 0.05,
        "a81a5e84c4e356a6",
        "36,21,1,16,26,11,6,31,41" );
      ( "cross-validation",
        Regression.Omp.Cross_validation { folds = 4; max_terms = 12 },
        "35603254445fafde",
        "36,21,1,16,26,11,6,31,41,10" );
    ]

(* ------------------------------------------------------------------ *)
(* Ridge *)

let test_ridge_shrinks_toward_zero () =
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:60 ~r:12 ~truth () in
  let small = Regression.Ridge.fit_design ~lambda:1e-8 ~g ~f in
  let large = Regression.Ridge.fit_design ~lambda:1e6 ~g ~f in
  check_bool "tiny lambda ~ LS" true
    (Linalg.Vec.approx_equal ~tol:1e-4 small truth);
  check_bool "huge lambda ~ 0" true (Linalg.Vec.nrm2 large < 0.05)

let test_ridge_overdetermined_equals_underdetermined_path () =
  (* same answer whether solved via normal equations or Woodbury *)
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:20 ~r:12 ~truth () in
  let direct = Regression.Ridge.fit_design ~lambda:0.3 ~g ~f in
  (* drop rows to force k < m and compare against explicit normal eqs *)
  let g_small = Linalg.Mat.init 9 13 (fun i j -> Linalg.Mat.get g i j) in
  let f_small = Array.sub f 0 9 in
  let wood = Regression.Ridge.fit_design ~lambda:0.3 ~g:g_small ~f:f_small in
  let gram = Linalg.Mat.add_diag (Linalg.Mat.gram g_small) (Array.make 13 0.3) in
  let expected =
    Linalg.Cholesky.solve_system gram (Linalg.Mat.gemv_t g_small f_small)
  in
  check_bool "paths agree (overdetermined run sane)" true
    (Array.length direct = 13);
  check_bool "woodbury = normal equations" true
    (Linalg.Vec.approx_equal ~tol:1e-8 wood expected)

let test_ridge_cv () =
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~noise:0.1 ~k:60 ~r:12 ~truth () in
  let coeffs, lambda = Regression.Ridge.fit_cv ~rng ~g ~f () in
  check_bool "lambda from grid" true (lambda > 0.);
  check_bool "decent fit" true (Linalg.Vec.rel_error coeffs truth < 0.2)

let test_ridge_validation () =
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:20 ~r:12 ~truth () in
  Alcotest.check_raises "lambda"
    (Invalid_argument "Ridge.fit_design: lambda must be > 0") (fun () ->
      ignore (Regression.Ridge.fit_design ~lambda:0. ~g ~f))

(* ------------------------------------------------------------------ *)
(* Lasso *)

let test_lasso_sparse_recovery () =
  let truth = sparse_truth 41 in
  let _, _, g, f = make_problem ~noise:0.01 ~k:100 ~r:40 ~truth () in
  let lmax = Regression.Lasso.lambda_max ~g ~f in
  let result =
    Regression.Lasso.fit_design
      (Regression.Lasso.default_options ~lambda:(0.005 *. lmax))
      ~g ~f
  in
  check_bool "converged" true result.converged;
  check_bool "close" true (Linalg.Vec.rel_error result.coeffs truth < 0.05);
  let nonzero =
    Array.fold_left
      (fun acc c -> if Float.abs c > 1e-6 then acc + 1 else acc)
      0 result.coeffs
  in
  check_bool "sparse-ish" true (nonzero <= 15)

let test_lasso_lambda_max_kills_everything () =
  let truth = sparse_truth 21 in
  let _, _, g, f = make_problem ~k:50 ~r:20 ~truth () in
  let lmax = Regression.Lasso.lambda_max ~g ~f in
  let result =
    Regression.Lasso.fit_design
      (Regression.Lasso.default_options ~lambda:(lmax *. 1.001))
      ~g ~f
  in
  check_float "all zero" 0. (Linalg.Vec.nrm2 result.coeffs)

let test_lasso_elastic_net_between () =
  (* l1_ratio = 0 behaves like ridge: dense, shrunk *)
  let truth = sparse_truth 21 in
  let _, _, g, f = make_problem ~k:50 ~r:20 ~truth () in
  let opts =
    { (Regression.Lasso.default_options ~lambda:0.1) with l1_ratio = 0. }
  in
  let result = Regression.Lasso.fit_design opts ~g ~f in
  check_bool "converged" true result.converged;
  let nonzero =
    Array.fold_left
      (fun acc c -> if Float.abs c > 1e-9 then acc + 1 else acc)
      0 result.coeffs
  in
  check_bool "dense" true (nonzero >= 18)

let test_lasso_validation () =
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:20 ~r:12 ~truth () in
  Alcotest.check_raises "lambda"
    (Invalid_argument "Lasso.fit_design: lambda must be > 0") (fun () ->
      ignore
        (Regression.Lasso.fit_design
           (Regression.Lasso.default_options ~lambda:0.)
           ~g ~f));
  Alcotest.check_raises "l1 ratio"
    (Invalid_argument "Lasso.fit_design: l1_ratio outside [0, 1]") (fun () ->
      ignore
        (Regression.Lasso.fit_design
           { (Regression.Lasso.default_options ~lambda:1.) with l1_ratio = 2. }
           ~g ~f))

(* ------------------------------------------------------------------ *)
(* Cross-method consistency *)

let test_methods_agree_on_easy_problem () =
  (* noiseless, overdetermined: LS, OMP (full), and ridge (tiny lambda)
     all land on the truth *)
  let truth = sparse_truth 13 in
  let _, _, g, f = make_problem ~k:100 ~r:12 ~truth () in
  let ls = Regression.Least_squares.fit_design ~g ~f in
  let omp =
    (Regression.Omp.fit_design ~g ~f (Regression.Omp.Residual 1e-12)).coeffs
  in
  let ridge = Regression.Ridge.fit_design ~lambda:1e-10 ~g ~f in
  check_bool "ls = omp" true (Linalg.Vec.approx_equal ~tol:1e-6 ls omp);
  check_bool "ls = ridge" true (Linalg.Vec.approx_equal ~tol:1e-5 ls ridge)

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"omp-residual-decreases-with-terms" ~count:20
      (make (Gen.int_range 0 1000))
      (fun seed ->
        let rng = Stats.Rng.create seed in
        let r = 15 and k = 25 in
        let xs = Stats.Sampling.monte_carlo rng ~k ~r in
        let basis = Polybasis.Basis.linear r in
        let g = Polybasis.Basis.design_matrix basis xs in
        let f = Stats.Rng.gaussian_vec rng k in
        let res n =
          (Regression.Omp.fit_design ~g ~f (Regression.Omp.Max_terms n))
            .residual_norm
        in
        res 2 >= res 4 -. 1e-9 && res 4 >= res 8 -. 1e-9);
    Test.make ~name:"ridge-norm-decreases-with-lambda" ~count:20
      (make (Gen.int_range 0 1000))
      (fun seed ->
        let rng = Stats.Rng.create seed in
        let r = 10 and k = 30 in
        let xs = Stats.Sampling.monte_carlo rng ~k ~r in
        let basis = Polybasis.Basis.linear r in
        let g = Polybasis.Basis.design_matrix basis xs in
        let f = Stats.Rng.gaussian_vec rng k in
        let norm lambda =
          Linalg.Vec.nrm2 (Regression.Ridge.fit_design ~lambda ~g ~f)
        in
        norm 0.01 >= norm 1. -. 1e-9 && norm 1. >= norm 100. -. 1e-9);
    Test.make ~name:"soft-threshold-behaviour-via-lasso" ~count:20
      (make (Gen.int_range 0 1000))
      (fun seed ->
        (* larger lambda never yields more nonzeros on the same data *)
        let rng = Stats.Rng.create seed in
        let r = 12 and k = 40 in
        let xs = Stats.Sampling.monte_carlo rng ~k ~r in
        let basis = Polybasis.Basis.linear r in
        let g = Polybasis.Basis.design_matrix basis xs in
        let f = Stats.Rng.gaussian_vec rng k in
        let nnz lambda =
          let res =
            Regression.Lasso.fit_design
              (Regression.Lasso.default_options ~lambda)
              ~g ~f
          in
          Array.fold_left
            (fun acc c -> if Float.abs c > 1e-9 then acc + 1 else acc)
            0 res.coeffs
        in
        nnz 0.01 >= nnz 0.3);
  ]

let () =
  Alcotest.run "regression"
    [
      ( "model",
        [
          Alcotest.test_case "create/predict" `Quick
            test_model_create_and_predict;
          Alcotest.test_case "sparsity/dominant" `Quick
            test_model_sparsity_and_dominant;
          Alcotest.test_case "test error" `Quick test_model_relative_test_error;
        ] );
      ( "least_squares",
        [
          Alcotest.test_case "exact recovery" `Quick test_ls_exact_recovery;
          Alcotest.test_case "underdetermined" `Quick
            test_ls_underdetermined_rejected;
          Alcotest.test_case "noise attenuation" `Quick
            test_ls_noise_attenuation;
        ] );
      ( "omp",
        [
          Alcotest.test_case "support recovery" `Quick
            test_omp_exact_support_recovery;
          Alcotest.test_case "residual stop" `Quick test_omp_residual_stop;
          Alcotest.test_case "underdetermined" `Quick test_omp_underdetermined;
          Alcotest.test_case "cv size" `Quick test_omp_cv_picks_reasonable_size;
          Alcotest.test_case "cap by samples" `Quick
            test_omp_max_terms_capped_by_samples;
          Alcotest.test_case "validation" `Quick test_omp_validation;
          Alcotest.test_case "fit wrapper" `Quick test_omp_fit_wrapper;
          Alcotest.test_case "goldens" `Quick test_omp_goldens;
        ] );
      ( "ridge",
        [
          Alcotest.test_case "shrinkage" `Quick test_ridge_shrinks_toward_zero;
          Alcotest.test_case "solver paths" `Quick
            test_ridge_overdetermined_equals_underdetermined_path;
          Alcotest.test_case "cv" `Quick test_ridge_cv;
          Alcotest.test_case "validation" `Quick test_ridge_validation;
        ] );
      ( "lasso",
        [
          Alcotest.test_case "sparse recovery" `Quick test_lasso_sparse_recovery;
          Alcotest.test_case "lambda max" `Quick
            test_lasso_lambda_max_kills_everything;
          Alcotest.test_case "elastic net" `Quick test_lasso_elastic_net_between;
          Alcotest.test_case "validation" `Quick test_lasso_validation;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "methods agree" `Quick
            test_methods_agree_on_easy_problem;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
