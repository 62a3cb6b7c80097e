(* Unit and property tests for the BMF core: priors, MAP solvers,
   hyper-parameter selection, prior mapping, posterior, and Algorithm 1
   end to end. *)

let check_float = Alcotest.(check (float 1e-9))

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rng = Stats.Rng.create 4242

let some v = Some v

(* A two-stage synthetic problem: late truth = perturbed early truth. *)
type synth = {
  basis : Polybasis.Basis.t;
  truth : Linalg.Vec.t;
  early : float option array;
  g : Linalg.Mat.t;
  f : Linalg.Vec.t;
  g_test : Linalg.Mat.t;
  f_test : Linalg.Vec.t;
}

let make_synth ?(k = 60) ?(r = 150) ?(noise = 0.01) ?(drift = 0.15) () =
  let basis = Polybasis.Basis.linear r in
  let m = Polybasis.Basis.size basis in
  let truth =
    Array.init m (fun i ->
        if i = 0 then 5.
        else if i <= 20 then 1.5 /. float_of_int i
        else 0.01 /. (1. +. (float_of_int i /. 40.)))
  in
  let early =
    Array.map
      (fun c -> some (c *. (1. +. (drift *. Stats.Rng.gaussian rng))))
      truth
  in
  let sample k =
    let xs = Stats.Sampling.monte_carlo rng ~k ~r in
    let g = Polybasis.Basis.design_matrix basis xs in
    let f =
      Array.init k (fun i ->
          Linalg.Vec.dot (Linalg.Mat.row g i) truth
          +. (noise *. Stats.Rng.gaussian rng))
    in
    (g, f)
  in
  let g, f = sample k in
  let g_test, f_test = sample 400 in
  { basis; truth; early; g; f; g_test; f_test }

let test_error synth coeffs =
  Linalg.Vec.rel_error (Linalg.Mat.gemv synth.g_test coeffs) synth.f_test

(* ------------------------------------------------------------------ *)
(* Prior *)

let test_prior_zero_mean_eq16 () =
  (* eq. 16: sigma_m = |alpha_E,m|, so weight = 1/alpha^2; means all 0 *)
  let p = Bmf.Prior.zero_mean [| some 2.; some (-0.5); some 1. |] in
  check_float "w0" 0.25 p.weights.(0);
  check_float "w1" 4. p.weights.(1);
  check_float "w2" 1. p.weights.(2);
  Alcotest.(check (array (float 1e-12))) "means" [| 0.; 0.; 0. |] p.means;
  check_bool "informed" true (Array.for_all Fun.id p.informed)

let test_prior_nonzero_mean_eq19 () =
  (* eq. 19: mean = alpha_E,m, variance scale = alpha_E,m^2 *)
  let p = Bmf.Prior.nonzero_mean [| some 2.; some (-0.5) |] in
  check_float "mean0" 2. p.means.(0);
  check_float "mean1" (-0.5) p.means.(1);
  check_float "w0" 0.25 p.weights.(0);
  check_float "w1" 4. p.weights.(1)

let test_prior_missing_flat () =
  (* missing prior: far smaller weight than informed ones, zero mean *)
  let p = Bmf.Prior.nonzero_mean [| some 1.; None; some 2. |] in
  check_bool "uninformed flag" true (not p.informed.(1));
  check_float "uninformed mean" 0. p.means.(1);
  check_bool "much flatter" true (p.weights.(1) < 1e-3 *. p.weights.(0))

let test_prior_zero_coefficient_floored () =
  (* an exactly-zero early coefficient must give a finite (huge) weight *)
  let p = Bmf.Prior.zero_mean [| some 1.; some 0. |] in
  check_bool "finite" true (Float.is_finite p.weights.(1));
  check_bool "very tight" true (p.weights.(1) > 1e6 *. p.weights.(0))

let test_prior_empty_rejected () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Prior: empty coefficient array") (fun () ->
      ignore (Bmf.Prior.zero_mean [||]))

let test_prior_log_pdf_peaks_at_mean () =
  let p = Bmf.Prior.nonzero_mean [| some 1.; some 2. |] in
  let at_mean = Bmf.Prior.log_pdf p ~hyper:0.5 [| 1.; 2. |] in
  let off = Bmf.Prior.log_pdf p ~hyper:0.5 [| 1.5; 2. |] in
  check_bool "peak at mean" true (at_mean > off)

let test_prior_kind_names () =
  Alcotest.(check string) "zm" "BMF-ZM" (Bmf.Prior.kind_name Bmf.Prior.Zero_mean);
  Alcotest.(check string) "nzm" "BMF-NZM"
    (Bmf.Prior.kind_name Bmf.Prior.Nonzero_mean)

(* ------------------------------------------------------------------ *)
(* Map_solver *)

let test_solver_fast_equals_direct () =
  let s = make_synth () in
  List.iter
    (fun kind ->
      let prior = Bmf.Prior.make kind s.early in
      List.iter
        (fun hyper ->
          let fast =
            Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g:s.g
              ~f:s.f ~prior ~hyper ()
          in
          let direct =
            Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Direct_cholesky ~g:s.g
              ~f:s.f ~prior ~hyper ()
          in
          check_bool
            (Printf.sprintf "agree %s h=%g" (Bmf.Prior.kind_name kind) hyper)
            true
            (Linalg.Vec.dist2 fast direct /. Linalg.Vec.nrm2 direct < 1e-8))
        [ 1e-6; 1e-2; 1.; 1e3 ])
    [ Bmf.Prior.Zero_mean; Bmf.Prior.Nonzero_mean ]

let test_solver_normal_equations () =
  (* the MAP solution satisfies (G^T G + t W)(alpha - mu) = G^T (f - G mu) *)
  let s = make_synth ~k:40 ~r:60 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let hyper = 0.05 in
  let alpha =
    Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g:s.g ~f:s.f
      ~prior ~hyper ()
  in
  let beta = Linalg.Vec.sub alpha prior.means in
  let lhs =
    Linalg.Vec.add
      (Linalg.Mat.gemv_t s.g (Linalg.Mat.gemv s.g beta))
      (Array.mapi (fun i b -> hyper *. prior.weights.(i) *. b) beta)
  in
  let resid = Linalg.Vec.sub s.f (Linalg.Mat.gemv s.g prior.means) in
  let rhs = Linalg.Mat.gemv_t s.g resid in
  check_bool "normal equations" true
    (Linalg.Vec.dist2 lhs rhs /. Linalg.Vec.nrm2 rhs < 1e-8)

let test_solver_strong_prior_pins_to_mean () =
  let s = make_synth () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let alpha =
    Bmf.Map_solver.solve ~g:s.g ~f:s.f ~prior ~hyper:1e9 ()
  in
  check_bool "close to prior mean" true
    (Linalg.Vec.dist2 alpha prior.means /. Linalg.Vec.nrm2 prior.means < 1e-3)

let test_solver_weak_prior_fits_data () =
  (* with an overdetermined system and a vanishing prior, MAP ~ LS *)
  let s = make_synth ~k:400 ~r:50 ~noise:0. () in
  let prior = Bmf.Prior.zero_mean s.early in
  let alpha = Bmf.Map_solver.solve ~g:s.g ~f:s.f ~prior ~hyper:1e-12 () in
  check_bool "matches truth" true
    (Linalg.Vec.dist2 alpha s.truth /. Linalg.Vec.nrm2 s.truth < 1e-5)

let test_solver_validation () =
  let s = make_synth ~k:10 ~r:5 () in
  let prior = Bmf.Prior.zero_mean s.early in
  Alcotest.check_raises "hyper"
    (Invalid_argument "Map_solver: hyper must be positive and finite")
    (fun () -> ignore (Bmf.Map_solver.solve ~g:s.g ~f:s.f ~prior ~hyper:0. ()));
  Alcotest.check_raises "length"
    (Invalid_argument "Map_solver: sample count mismatch") (fun () ->
      ignore
        (Bmf.Map_solver.solve ~g:s.g ~f:(Array.make 3 0.) ~prior ~hyper:1. ()))

let test_solver_default_dispatch () =
  (* underdetermined picks the fast path, overdetermined the direct one;
     both give the same answer either way *)
  let s = make_synth ~k:30 ~r:60 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let auto = Bmf.Map_solver.solve ~g:s.g ~f:s.f ~prior ~hyper:0.1 () in
  let fast =
    Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g:s.g ~f:s.f
      ~prior ~hyper:0.1 ()
  in
  check_bool "auto = fast when k < m" true
    (Linalg.Vec.approx_equal ~tol:1e-10 auto fast)

(* ------------------------------------------------------------------ *)
(* Hyper *)

let test_hyper_grid_positive_sorted () =
  let s = make_synth () in
  let prior = Bmf.Prior.zero_mean s.early in
  let grid = Bmf.Hyper.auto_grid ~g:s.g ~f:s.f ~prior () in
  check_bool "nonempty" true (grid <> []);
  check_bool "positive" true (List.for_all (fun t -> t > 0.) grid);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  check_bool "ascending" true (sorted grid)

let test_hyper_cv_matches_naive () =
  (* shared-work sweep must equal a per-fold direct evaluation *)
  let s = make_synth ~k:32 ~r:40 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let candidates = [ 1e-3; 1e-1; 10. ] in
  let fast =
    Bmf.Hyper.cv_errors ~folds:4 ~g:s.g ~f:s.f ~prior ~candidates ()
  in
  let naive =
    Bmf.Hyper.cv_errors ~solver:Bmf.Map_solver.Direct_cholesky ~folds:4 ~g:s.g
      ~f:s.f ~prior ~candidates ()
  in
  List.iter2
    (fun (t1, e1) (t2, e2) ->
      check_float "candidate" t1 t2;
      Alcotest.(check (float 1e-6)) "cv error" e2 e1)
    fast naive

let test_hyper_select_returns_minimum () =
  let s = make_synth () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let candidates = [ 1e-4; 1e-2; 1.; 100. ] in
  let scored = Bmf.Hyper.cv_errors ~folds:4 ~g:s.g ~f:s.f ~prior ~candidates () in
  let best_t, best_e = Bmf.Hyper.select ~folds:4 ~candidates ~g:s.g ~f:s.f ~prior () in
  List.iter (fun (_, e) -> check_bool "minimal" true (best_e <= e +. 1e-12)) scored;
  check_bool "from candidates" true (List.mem best_t candidates)

let test_hyper_validation () =
  let s = make_synth ~k:10 ~r:5 () in
  let prior = Bmf.Prior.zero_mean s.early in
  Alcotest.check_raises "folds"
    (Invalid_argument "Hyper.cv_errors: need at least 2 folds") (fun () ->
      ignore
        (Bmf.Hyper.cv_errors ~folds:1 ~g:s.g ~f:s.f ~prior ~candidates:[ 1. ] ()));
  Alcotest.check_raises "candidates"
    (Invalid_argument "Hyper.cv_errors: no candidates") (fun () ->
      ignore (Bmf.Hyper.cv_errors ~folds:2 ~g:s.g ~f:s.f ~prior ~candidates:[] ()));
  Alcotest.check_raises "negative candidate"
    (Invalid_argument "Hyper.cv_errors: candidates must be positive")
    (fun () ->
      ignore
        (Bmf.Hyper.cv_errors ~folds:2 ~g:s.g ~f:s.f ~prior ~candidates:[ -1. ] ()))

(* One sample cannot be split into a training and a held-out fold: the
   sweep must say so itself rather than hand Crossval a single fold. *)
let test_hyper_rejects_one_sample () =
  let g = Linalg.Mat.of_rows [ [| 1.; 0.5; -0.25 |] ] and f = [| 1. |] in
  let prior = Bmf.Prior.zero_mean [| Some 1.; Some 0.5; Some 0.1 |] in
  Alcotest.check_raises "one sample"
    (Invalid_argument "Hyper.cv_errors: need at least 2 samples") (fun () ->
      ignore (Bmf.Hyper.cv_errors ~folds:4 ~g ~f ~prior ~candidates:[ 1. ] ()))

(* Regression: a validation group of (near-)zero responses used to blow
   the relative-error denominator up to inf/NaN for every candidate; the
   guard falls back to the absolute error and keeps the sweep finite. *)
let test_hyper_cv_zero_response_finite () =
  let s = make_synth ~k:24 ~r:8 () in
  let prior = Bmf.Prior.zero_mean s.early in
  let candidates = [ 1e-3; 1.; 100. ] in
  List.iter
    (fun f ->
      let scored = Bmf.Hyper.cv_errors ~folds:4 ~g:s.g ~f ~prior ~candidates () in
      List.iter
        (fun (_, e) ->
          check_bool "finite cv error" true (Float.is_finite e);
          check_bool "non-negative" true (e >= 0.))
        scored;
      let hyper, err = Bmf.Hyper.select ~folds:4 ~candidates ~g:s.g ~f ~prior () in
      check_bool "selected from grid" true (List.mem hyper candidates);
      check_bool "selected error finite" true (Float.is_finite err))
    [
      Array.make (Array.length s.f) 0.;
      (* exactly zero responses *)
      Array.make (Array.length s.f) 1e-200;
      (* tiny but nonzero: |f_v| far below the 1e-12 floor *)
    ]

let test_evidence_matches_dense_gaussian () =
  (* small problem: compare against an explicit multivariate-normal
     log-density with covariance noise I + scale G W^-1 G^T *)
  let s = make_synth ~k:8 ~r:12 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let noise = 0.3 and scale = 0.7 in
  let got = Bmf.Hyper.log_evidence ~scale ~g:s.g ~f:s.f ~prior ~noise () in
  (* dense reference *)
  let w_inv = Array.map (fun w -> 1. /. w) prior.Bmf.Prior.weights in
  let b = Linalg.Mat.weighted_outer_gram s.g w_inv in
  let c = Linalg.Mat.add_diag (Linalg.Mat.scale scale b) (Array.make 8 noise) in
  let r = Linalg.Vec.sub s.f (Linalg.Mat.gemv s.g prior.Bmf.Prior.means) in
  let chol = Linalg.Cholesky.factorize c in
  let expected =
    -0.5
    *. (Linalg.Vec.dot r (Linalg.Cholesky.solve chol r)
       +. Linalg.Cholesky.log_det chol
       +. (8. *. log (2. *. Float.pi)))
  in
  Alcotest.(check (float 1e-9)) "closed form" expected got

let test_evidence_peaks_near_true_noise () =
  (* draw data exactly from the zero-mean prior's generative model and
     check the evidence prefers the true noise variance over values two
     orders off *)
  let rng = Stats.Rng.create 88 in
  let r = 30 and k = 40 in
  let basis = Polybasis.Basis.linear r in
  let m = Polybasis.Basis.size basis in
  let early = Array.init m (fun i -> Some (1. /. float_of_int (i + 1))) in
  let prior = Bmf.Prior.zero_mean early in
  (* alpha_m ~ N(0, 1/w_m) *)
  let alpha =
    Array.mapi
      (fun i w -> Stats.Rng.gaussian rng /. sqrt w +. (0. *. float_of_int i))
      prior.Bmf.Prior.weights
  in
  let true_noise = 0.05 in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let f =
    Array.init k (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) alpha
        +. (sqrt true_noise *. Stats.Rng.gaussian rng))
  in
  let le noise = Bmf.Hyper.log_evidence ~g ~f ~prior ~noise () in
  check_bool "beats 100x smaller" true (le true_noise > le (true_noise /. 100.));
  check_bool "beats 100x larger" true (le true_noise > le (true_noise *. 100.))

let test_select_evidence_usable_hyper () =
  let s = make_synth ~k:50 ~r:100 () in
  List.iter
    (fun kind ->
      let prior = Bmf.Prior.make kind s.early in
      let hyper, le = Bmf.Hyper.select_evidence ~g:s.g ~f:s.f ~prior () in
      check_bool "finite" true (Float.is_finite le && hyper > 0.);
      let coeffs = Bmf.Map_solver.solve ~g:s.g ~f:s.f ~prior ~hyper () in
      let err = test_error s coeffs in
      (* within striking distance of the CV-selected fit *)
      let h_cv, _ = Bmf.Hyper.select ~g:s.g ~f:s.f ~prior () in
      let err_cv = test_error s (Bmf.Map_solver.solve ~g:s.g ~f:s.f ~prior ~hyper:h_cv ()) in
      check_bool
        (Printf.sprintf "%s: evidence %.4f vs cv %.4f"
           (Bmf.Prior.kind_name kind) err err_cv)
        true
        (err < 3. *. Float.max err_cv 0.001))
    [ Bmf.Prior.Zero_mean; Bmf.Prior.Nonzero_mean ]

let test_evidence_validation () =
  let s = make_synth ~k:10 ~r:5 () in
  let prior = Bmf.Prior.zero_mean s.early in
  Alcotest.check_raises "noise"
    (Invalid_argument "Hyper.log_evidence: noise must be positive") (fun () ->
      ignore (Bmf.Hyper.log_evidence ~g:s.g ~f:s.f ~prior ~noise:0. ()));
  Alcotest.check_raises "scale"
    (Invalid_argument "Hyper.log_evidence: scale must be positive") (fun () ->
      ignore (Bmf.Hyper.log_evidence ~scale:(-1.) ~g:s.g ~f:s.f ~prior ~noise:1. ()))

(* ------------------------------------------------------------------ *)
(* Fusion (Algorithm 1) *)

let test_fusion_beats_omp_at_small_k () =
  let s = make_synth ~k:50 ~r:200 () in
  let ps = Bmf.Fusion.fit_design ~rng ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_ps in
  let omp =
    Regression.Omp.fit_design ~rng ~g:s.g ~f:s.f
      (Regression.Omp.Cross_validation { folds = 4; max_terms = 16 })
  in
  let e_ps = test_error s ps.coeffs and e_omp = test_error s omp.coeffs in
  check_bool
    (Printf.sprintf "bmf (%.4f) beats omp (%.4f)" e_ps e_omp)
    true (e_ps < e_omp)

let test_fusion_ps_picks_better_prior () =
  let s = make_synth () in
  let zm = Bmf.Fusion.fit_design ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_zm in
  let nzm = Bmf.Fusion.fit_design ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_nzm in
  let ps = Bmf.Fusion.fit_design ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_ps in
  check_bool "cv error is min" true
    (ps.cv_error <= zm.cv_error +. 1e-12 && ps.cv_error <= nzm.cv_error +. 1e-12);
  let expected_kind =
    if zm.cv_error <= nzm.cv_error then Bmf.Prior.Zero_mean
    else Bmf.Prior.Nonzero_mean
  in
  check_bool "kind matches winner" true (ps.prior_kind = expected_kind)

let test_fusion_fixed_methods_report_kind () =
  let s = make_synth ~k:30 ~r:40 () in
  let zm = Bmf.Fusion.fit_design ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_zm in
  check_bool "zm kind" true (zm.prior_kind = Bmf.Prior.Zero_mean);
  let nzm = Bmf.Fusion.fit_design ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_nzm in
  check_bool "nzm kind" true (nzm.prior_kind = Bmf.Prior.Nonzero_mean)

let test_fusion_deterministic_given_rng () =
  let s = make_synth ~k:30 ~r:40 () in
  let run () =
    let rng = Stats.Rng.create 5 in
    (Bmf.Fusion.fit_design ~rng ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_ps)
      .coeffs
  in
  check_bool "reproducible" true (Linalg.Vec.approx_equal (run ()) (run ()))

let test_fusion_validation () =
  let s = make_synth ~k:10 ~r:5 () in
  Alcotest.check_raises "early length"
    (Invalid_argument "Fusion.fit_design: early coefficient length mismatch")
    (fun () ->
      ignore
        (Bmf.Fusion.fit_design ~early:[| Some 1. |] ~g:s.g ~f:s.f
           Bmf.Fusion.Bmf_ps))

let test_fusion_model_wrapper () =
  let s = make_synth ~k:40 ~r:30 () in
  let xs = Stats.Sampling.monte_carlo rng ~k:40 ~r:30 in
  let f = Array.init 40 (fun i ->
      Polybasis.Basis.predict s.basis ~coeffs:s.truth (Linalg.Mat.row xs i))
  in
  let model, fitted =
    Bmf.Fusion.fit ~early:s.early ~basis:s.basis ~xs ~f Bmf.Fusion.Bmf_nzm
  in
  check_int "model size" (Polybasis.Basis.size s.basis)
    (Regression.Model.num_terms model);
  check_bool "coeffs consistent" true
    (Linalg.Vec.approx_equal (Regression.Model.coeffs model) fitted.coeffs)

let test_fusion_method_names () =
  Alcotest.(check string) "zm" "BMF-ZM" (Bmf.Fusion.method_name Bmf.Fusion.Bmf_zm);
  Alcotest.(check string) "nzm" "BMF-NZM"
    (Bmf.Fusion.method_name Bmf.Fusion.Bmf_nzm);
  Alcotest.(check string) "ps" "BMF-PS" (Bmf.Fusion.method_name Bmf.Fusion.Bmf_ps)

let test_fusion_missing_priors_still_work () =
  let s = make_synth ~k:60 ~r:100 () in
  (* blank a third of the priors *)
  let early =
    Array.mapi (fun i e -> if i mod 3 = 1 then None else e) s.early
  in
  let ps = Bmf.Fusion.fit_design ~early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_ps in
  let full = Bmf.Fusion.fit_design ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_ps in
  let e_missing = test_error s ps.coeffs and e_full = test_error s full.coeffs in
  check_bool "still fits" true (e_missing < 0.2);
  check_bool "full prior at least as good" true (e_full <= e_missing +. 0.02)


let test_fusion_chain_improves_over_stale_prior () =
  (* stage 2 truth drifts from stage 1; chaining through stage-2 data
     must beat using the stage-1 prior directly on stage 3 *)
  let s = make_synth ~k:60 ~r:80 () in
  (* stage 3 truth: stage truth scaled systematically *)
  let truth3 = Array.map (fun c -> 0.93 *. c) s.truth in
  let rng3 = Stats.Rng.create 77 in
  let sample3 k =
    let xs = Stats.Sampling.monte_carlo rng3 ~k ~r:80 in
    let g = Polybasis.Basis.design_matrix s.basis xs in
    let f =
      Array.init k (fun i ->
          Linalg.Vec.dot (Linalg.Mat.row g i) truth3
          +. (0.01 *. Stats.Rng.gaussian rng3))
    in
    (g, f)
  in
  let g3, f3 = sample3 25 in
  let g3t, f3t = sample3 300 in
  let fits =
    Bmf.Fusion.chain ~early:s.early [ (s.g, s.f); (g3, f3) ] Bmf.Fusion.Bmf_ps
  in
  check_int "two fits" 2 (List.length fits);
  let final = List.nth fits 1 in
  let stale = List.nth fits 0 in
  let err c = Linalg.Vec.rel_error (Linalg.Mat.gemv g3t c) f3t in
  check_bool "chained beats stale" true
    (err final.Bmf.Fusion.coeffs < err stale.Bmf.Fusion.coeffs)

let test_fusion_chain_single_stage_matches_fit () =
  let s = make_synth ~k:30 ~r:40 () in
  let rng1 = Stats.Rng.create 5 and rng2 = Stats.Rng.create 5 in
  let chained =
    List.hd (Bmf.Fusion.chain ~rng:rng1 ~early:s.early [ (s.g, s.f) ] Bmf.Fusion.Bmf_ps)
  in
  let direct = Bmf.Fusion.fit_design ~rng:rng2 ~early:s.early ~g:s.g ~f:s.f Bmf.Fusion.Bmf_ps in
  check_bool "identical" true
    (Linalg.Vec.approx_equal chained.Bmf.Fusion.coeffs direct.Bmf.Fusion.coeffs)

let test_fusion_chain_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Fusion.chain: no stages")
    (fun () ->
      ignore (Bmf.Fusion.chain ~early:[| Some 1. |] [] Bmf.Fusion.Bmf_ps))

(* ------------------------------------------------------------------ *)
(* Prior_mapping *)

let test_mapping_indexing () =
  let pm = Bmf.Prior_mapping.create [| 2; 1; 3 |] in
  check_int "early dim" 3 (Bmf.Prior_mapping.early_dim pm);
  check_int "late dim" 6 (Bmf.Prior_mapping.late_dim pm);
  check_int "fingers" 3 (Bmf.Prior_mapping.fingers pm 2);
  check_int "var (0,1)" 1 (Bmf.Prior_mapping.late_var pm ~sch:0 ~finger:1);
  check_int "var (2,0)" 3 (Bmf.Prior_mapping.late_var pm ~sch:2 ~finger:0);
  Alcotest.(check (pair int int)) "inverse" (2, 2)
    (Bmf.Prior_mapping.schematic_of_late pm 5);
  (* round trip over every late variable *)
  for v = 0 to 5 do
    let sch, fg = Bmf.Prior_mapping.schematic_of_late pm v in
    check_int "roundtrip" v (Bmf.Prior_mapping.late_var pm ~sch ~finger:fg)
  done

let test_mapping_validation () =
  Alcotest.check_raises "zero fingers"
    (Invalid_argument "Prior_mapping.create: fingers.(1) = 0 < 1") (fun () ->
      ignore (Bmf.Prior_mapping.create [| 1; 0 |]));
  let pm = Bmf.Prior_mapping.create [| 2 |] in
  Alcotest.check_raises "finger range"
    (Invalid_argument "Prior_mapping.late_var: finger out of range") (fun () ->
      ignore (Bmf.Prior_mapping.late_var pm ~sch:0 ~finger:2))

let test_mapping_constant_and_linear_terms () =
  let pm = Bmf.Prior_mapping.create [| 2; 3 |] in
  Alcotest.(check int) "constant group" 1
    (List.length (Bmf.Prior_mapping.map_term pm Polybasis.Multi_index.constant));
  Alcotest.(check int) "x0 group" 2
    (List.length (Bmf.Prior_mapping.map_term pm (Polybasis.Multi_index.linear 0)));
  Alcotest.(check int) "x1 group" 3
    (List.length (Bmf.Prior_mapping.map_term pm (Polybasis.Multi_index.linear 1)))

let test_mapping_product_term_group () =
  (* T_m for a product term is the product of finger counts *)
  let pm = Bmf.Prior_mapping.create [| 2; 3 |] in
  let t = Polybasis.Multi_index.of_pairs [| (0, 1); (1, 1) |] in
  Alcotest.(check int) "product group" 6
    (List.length (Bmf.Prior_mapping.map_term pm t))

let test_mapping_eq49_variance_conservation () =
  (* beta = alpha / sqrt(T): sum of beta^2 over each group = alpha^2 *)
  let pm = Bmf.Prior_mapping.create [| 2; 1; 4 |] in
  let eb = Polybasis.Basis.linear 3 in
  let ec = [| 1.0; 2.0; -3.0; 0.5 |] in
  let lb, lc = Bmf.Prior_mapping.map_model pm ~early_basis:eb ~early_coeffs:ec in
  check_int "late size 1+2+1+4" 8 (Polybasis.Basis.size lb);
  (* group of x0 (2 fingers): positions 1, 2 *)
  (match (lc.(1), lc.(2)) with
  | Some b1, Some b2 ->
      Alcotest.(check (float 1e-12)) "sum beta^2 = alpha^2" 4.
        ((b1 *. b1) +. (b2 *. b2));
      check_float "equal split" b1 b2
  | _ -> Alcotest.fail "expected mapped priors");
  (* constant maps unchanged *)
  (match lc.(0) with
  | Some b -> check_float "constant" 1. b
  | None -> Alcotest.fail "constant prior missing")

let test_mapping_identity_is_noop () =
  let pm = Bmf.Prior_mapping.identity 4 in
  let eb = Polybasis.Basis.linear 4 in
  let ec = [| 1.; 2.; 3.; 4.; 5. |] in
  let lb, lc = Bmf.Prior_mapping.map_model pm ~early_basis:eb ~early_coeffs:ec in
  check_int "same size" 5 (Polybasis.Basis.size lb);
  Array.iteri
    (fun i c ->
      match c with
      | Some v -> check_float "unchanged" ec.(i) v
      | None -> Alcotest.fail "unexpected missing")
    lc

let test_mapping_append_missing () =
  let pm = Bmf.Prior_mapping.create [| 2 |] in
  let eb = Polybasis.Basis.linear 1 in
  let mapped = Bmf.Prior_mapping.map_model pm ~early_basis:eb ~early_coeffs:[| 1.; 2. |] in
  let lb, lc =
    Bmf.Prior_mapping.append_missing mapped
      [ Polybasis.Multi_index.linear 2; Polybasis.Multi_index.linear 3 ]
  in
  check_int "extended size" 5 (Polybasis.Basis.size lb);
  check_int "extended dim" 4 (Polybasis.Basis.dim lb);
  check_bool "tail missing" true (lc.(3) = None && lc.(4) = None);
  check_bool "head informed" true (lc.(0) <> None)

let test_mapping_recovers_finger_physics () =
  (* Build a late-stage truth that genuinely splits early coefficients
     across fingers; the mapped prior mean should be close to it. *)
  let r = 20 and w = 2 in
  let pm = Bmf.Prior_mapping.create (Array.make r w) in
  let eb = Polybasis.Basis.linear r in
  let ec = Array.init (r + 1) (fun i -> if i = 0 then 2. else 1. /. float_of_int i) in
  let _, mapped = Bmf.Prior_mapping.map_model pm ~early_basis:eb ~early_coeffs:ec in
  (* physical late truth: each early linear coefficient splits as
     alpha/sqrt(w) per finger *)
  Array.iteri
    (fun i c ->
      match c with
      | Some v when i > 0 ->
          let sch, _ = Bmf.Prior_mapping.schematic_of_late pm (i - 1) in
          Alcotest.(check (float 1e-12))
            "split matches physics"
            (ec.(sch + 1) /. sqrt (float_of_int w))
            v
      | _ -> ())
    mapped

(* ------------------------------------------------------------------ *)
(* Posterior *)

let test_posterior_mean_matches_map () =
  let s = make_synth ~k:50 ~r:20 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let hyper = 0.1 in
  let map_sol =
    Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Direct_cholesky ~g:s.g ~f:s.f
      ~prior ~hyper ()
  in
  let post = Bmf.Posterior.compute ~g:s.g ~f:s.f ~prior ~hyper () in
  check_bool "mean = MAP" true
    (Linalg.Vec.approx_equal ~tol:1e-9 post.mean map_sol)

let test_posterior_covariance_spd_and_shrinks () =
  let s = make_synth ~k:60 ~r:15 ~noise:0.05 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let post =
    Bmf.Posterior.compute ~sigma0_sq:0.0025 ~g:s.g ~f:s.f ~prior ~hyper:0.1 ()
  in
  check_bool "symmetric" true (Linalg.Mat.is_symmetric ~tol:1e-7 post.covariance);
  let stds = Bmf.Posterior.marginal_std post in
  check_bool "positive stds" true (Array.for_all (fun s -> s > 0.) stds);
  (* more data shrinks the posterior *)
  let s2 = make_synth ~k:300 ~r:15 ~noise:0.05 () in
  let post2 =
    Bmf.Posterior.compute ~sigma0_sq:0.0025 ~g:s2.g ~f:s2.f
      ~prior:(Bmf.Prior.nonzero_mean s2.early) ~hyper:0.1 ()
  in
  let stds2 = Bmf.Posterior.marginal_std post2 in
  check_bool "smaller with more data" true
    (Linalg.Vec.mean stds2 < Linalg.Vec.mean stds)

let test_posterior_credible_interval () =
  let s = make_synth ~k:80 ~r:10 ~noise:0.02 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let post = Bmf.Posterior.compute ~g:s.g ~f:s.f ~prior ~hyper:0.1 () in
  let lo, hi = Bmf.Posterior.credible_interval post ~index:0 ~level:0.95 in
  check_bool "contains mean" true (lo < post.mean.(0) && post.mean.(0) < hi);
  let lo99, hi99 = Bmf.Posterior.credible_interval post ~index:0 ~level:0.99 in
  check_bool "wider at higher level" true (lo99 < lo && hi99 > hi);
  Alcotest.check_raises "level"
    (Invalid_argument "Posterior.credible_interval: level outside (0, 1)")
    (fun () -> ignore (Bmf.Posterior.credible_interval post ~index:0 ~level:1.5))

let test_posterior_samples_match_moments () =
  let s = make_synth ~k:60 ~r:8 ~noise:0.05 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let post = Bmf.Posterior.compute ~g:s.g ~f:s.f ~prior ~hyper:0.1 () in
  let rng = Stats.Rng.create 8 in
  let n = 4000 in
  let idx = 1 in
  let draws = Array.init n (fun _ -> (Bmf.Posterior.sample rng post).(idx)) in
  let std_expected = (Bmf.Posterior.marginal_std post).(idx) in
  check_bool "sample mean" true
    (Float.abs (Stats.Describe.mean draws -. post.mean.(idx))
    < 5. *. std_expected /. sqrt (float_of_int n));
  check_bool "sample std" true
    (Float.abs (Stats.Describe.std draws -. std_expected) /. std_expected < 0.1)

let test_posterior_predict_variance_floor () =
  (* predictive variance is at least the observation noise *)
  let s = make_synth ~k:60 ~r:8 () in
  let prior = Bmf.Prior.nonzero_mean s.early in
  let sigma0_sq = 0.04 in
  let post = Bmf.Posterior.compute ~sigma0_sq ~g:s.g ~f:s.f ~prior ~hyper:0.1 () in
  let row = Polybasis.Basis.eval_row s.basis (Stats.Rng.gaussian_vec rng 8) in
  let _, std = Bmf.Posterior.predict post row in
  check_bool "std >= noise" true (std >= sqrt sigma0_sq -. 1e-12)

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"fast-equals-direct-random-problems" ~count:15
      (make Gen.(pair (int_range 0 10000) (int_range 5 25)))
      (fun (seed, k) ->
        let rng = Stats.Rng.create seed in
        let m = 2 * k in
        let g = Linalg.Mat.init k m (fun _ _ -> Stats.Rng.gaussian rng) in
        let f = Stats.Rng.gaussian_vec rng k in
        let early =
          Array.init m (fun _ -> Some (0.1 +. Float.abs (Stats.Rng.gaussian rng)))
        in
        let prior = Bmf.Prior.nonzero_mean early in
        let fast =
          Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g ~f
            ~prior ~hyper:0.3 ()
        in
        let direct =
          Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Direct_cholesky ~g ~f
            ~prior ~hyper:0.3 ()
        in
        Linalg.Vec.dist2 fast direct
        < 1e-7 *. Float.max 1. (Linalg.Vec.nrm2 direct));
    Test.make ~name:"map-interpolates-mean-and-data" ~count:15
      (make (Gen.int_range 0 10000))
      (fun seed ->
        (* as hyper grows the solution moves monotonically toward the
           prior mean (in distance) *)
        let rng = Stats.Rng.create seed in
        let k = 12 and m = 30 in
        let g = Linalg.Mat.init k m (fun _ _ -> Stats.Rng.gaussian rng) in
        let f = Stats.Rng.gaussian_vec rng k in
        let early = Array.init m (fun _ -> Some (1. +. Stats.Rng.float rng)) in
        let prior = Bmf.Prior.nonzero_mean early in
        let dist hyper =
          let a = Bmf.Map_solver.solve ~g ~f ~prior ~hyper () in
          Linalg.Vec.dist2 a prior.means
        in
        dist 1e-3 >= dist 1. -. 1e-9 && dist 1. >= dist 1e3 -. 1e-9);
    Test.make ~name:"mapping-variance-conserved" ~count:30
      (make Gen.(pair (int_range 1 4) (float_range (-5.) 5.)))
      (fun (w, alpha) ->
        let pm = Bmf.Prior_mapping.create [| w |] in
        let eb = Polybasis.Basis.linear 1 in
        let _, mapped =
          Bmf.Prior_mapping.map_model pm ~early_basis:eb
            ~early_coeffs:[| 0.; alpha |]
        in
        let sum_sq =
          Array.fold_left
            (fun acc c ->
              match c with Some b -> acc +. (b *. b) | None -> acc)
            0.
            (Array.sub mapped 1 w)
        in
        Float.abs (sum_sq -. (alpha *. alpha)) < 1e-9 *. Float.max 1. (alpha *. alpha));
  ]

let () =
  Alcotest.run "bmf"
    [
      ( "prior",
        [
          Alcotest.test_case "zero mean eq16" `Quick test_prior_zero_mean_eq16;
          Alcotest.test_case "nonzero mean eq19" `Quick
            test_prior_nonzero_mean_eq19;
          Alcotest.test_case "missing flat" `Quick test_prior_missing_flat;
          Alcotest.test_case "zero floored" `Quick
            test_prior_zero_coefficient_floored;
          Alcotest.test_case "empty rejected" `Quick test_prior_empty_rejected;
          Alcotest.test_case "log pdf peak" `Quick
            test_prior_log_pdf_peaks_at_mean;
          Alcotest.test_case "kind names" `Quick test_prior_kind_names;
        ] );
      ( "map_solver",
        [
          Alcotest.test_case "fast = direct" `Quick
            test_solver_fast_equals_direct;
          Alcotest.test_case "normal equations" `Quick
            test_solver_normal_equations;
          Alcotest.test_case "strong prior" `Quick
            test_solver_strong_prior_pins_to_mean;
          Alcotest.test_case "weak prior" `Quick test_solver_weak_prior_fits_data;
          Alcotest.test_case "validation" `Quick test_solver_validation;
          Alcotest.test_case "default dispatch" `Quick
            test_solver_default_dispatch;
        ] );
      ( "hyper",
        [
          Alcotest.test_case "grid" `Quick test_hyper_grid_positive_sorted;
          Alcotest.test_case "cv matches naive" `Quick
            test_hyper_cv_matches_naive;
          Alcotest.test_case "select minimum" `Quick
            test_hyper_select_returns_minimum;
          Alcotest.test_case "validation" `Quick test_hyper_validation;
          Alcotest.test_case "one sample rejected" `Quick
            test_hyper_rejects_one_sample;
          Alcotest.test_case "zero-response folds stay finite" `Quick
            test_hyper_cv_zero_response_finite;
          Alcotest.test_case "evidence closed form" `Quick
            test_evidence_matches_dense_gaussian;
          Alcotest.test_case "evidence peak" `Quick
            test_evidence_peaks_near_true_noise;
          Alcotest.test_case "evidence select" `Quick
            test_select_evidence_usable_hyper;
          Alcotest.test_case "evidence validation" `Quick
            test_evidence_validation;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "beats OMP at small K" `Quick
            test_fusion_beats_omp_at_small_k;
          Alcotest.test_case "PS picks better prior" `Quick
            test_fusion_ps_picks_better_prior;
          Alcotest.test_case "fixed kinds" `Quick
            test_fusion_fixed_methods_report_kind;
          Alcotest.test_case "deterministic" `Quick
            test_fusion_deterministic_given_rng;
          Alcotest.test_case "validation" `Quick test_fusion_validation;
          Alcotest.test_case "model wrapper" `Quick test_fusion_model_wrapper;
          Alcotest.test_case "method names" `Quick test_fusion_method_names;
          Alcotest.test_case "missing priors" `Quick
            test_fusion_missing_priors_still_work;
          Alcotest.test_case "chain improves" `Quick
            test_fusion_chain_improves_over_stale_prior;
          Alcotest.test_case "chain single = fit" `Quick
            test_fusion_chain_single_stage_matches_fit;
          Alcotest.test_case "chain empty" `Quick test_fusion_chain_empty_rejected;
        ] );
      ( "prior_mapping",
        [
          Alcotest.test_case "indexing" `Quick test_mapping_indexing;
          Alcotest.test_case "validation" `Quick test_mapping_validation;
          Alcotest.test_case "term groups" `Quick
            test_mapping_constant_and_linear_terms;
          Alcotest.test_case "product groups" `Quick
            test_mapping_product_term_group;
          Alcotest.test_case "eq49 variance" `Quick
            test_mapping_eq49_variance_conservation;
          Alcotest.test_case "identity" `Quick test_mapping_identity_is_noop;
          Alcotest.test_case "append missing" `Quick test_mapping_append_missing;
          Alcotest.test_case "finger physics" `Quick
            test_mapping_recovers_finger_physics;
        ] );
      ( "posterior",
        [
          Alcotest.test_case "mean = MAP" `Quick test_posterior_mean_matches_map;
          Alcotest.test_case "covariance" `Quick
            test_posterior_covariance_spd_and_shrinks;
          Alcotest.test_case "credible interval" `Quick
            test_posterior_credible_interval;
          Alcotest.test_case "sampling moments" `Quick
            test_posterior_samples_match_moments;
          Alcotest.test_case "predictive floor" `Quick
            test_posterior_predict_variance_floor;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
