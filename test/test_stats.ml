(* Unit and property tests for the statistics layer. *)

open Stats

let check_float = Alcotest.(check (float 1e-9))

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b);
  (* advancing one does not advance the other *)
  ignore (Rng.int64 a);
  ignore (Rng.int64 a);
  let x = Rng.int64 a and y = Rng.int64 b in
  check_bool "independent state" true (x <> y)

let test_rng_split_streams () =
  let parent = Rng.create 3 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  check_bool "children differ" true (Rng.int64 c1 <> Rng.int64 c2)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let u = Rng.float rng in
    check_bool "in [0,1)" true (u >= 0. && u < 1.)
  done

let test_rng_int_range_and_mean () =
  let rng = Rng.create 11 in
  let n = 10 in
  let counts = Array.make n 0 in
  let draws = 20000 in
  for _ = 1 to draws do
    let v = Rng.int rng n in
    check_bool "in range" true (v >= 0 && v < n);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      (* each bucket within 5 sigma of uniform *)
      let expected = float_of_int draws /. float_of_int n in
      let sigma = sqrt (expected *. (1. -. (1. /. float_of_int n))) in
      check_bool "uniform-ish" true
        (Float.abs (float_of_int c -. expected) < 5. *. sigma))
    counts

let test_rng_int_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 100000 in
  let v = Rng.gaussian_vec rng n in
  check_bool "mean" true (Float.abs (Describe.mean v) < 0.02);
  check_bool "std" true (Float.abs (Describe.std v -. 1.) < 0.02);
  let s = Describe.summarize v in
  check_bool "skewness" true (Float.abs s.skewness < 0.05);
  check_bool "kurtosis" true (Float.abs s.kurtosis_excess < 0.1)

let test_rng_permutation () =
  let rng = Rng.create 17 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check_bool "is a permutation" true
    (Array.to_list sorted = List.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Special *)

let test_erf_known_values () =
  Alcotest.(check (float 1e-10)) "erf 0" 0. (Special.erf 0.);
  Alcotest.(check (float 1e-10)) "erf 1" 0.8427007929497149 (Special.erf 1.);
  Alcotest.(check (float 1e-10)) "erf -1" (-0.8427007929497149) (Special.erf (-1.));
  Alcotest.(check (float 1e-10)) "erf 2" 0.9953222650189527 (Special.erf 2.);
  Alcotest.(check (float 1e-12)) "erf inf" 1. (Special.erf 10.)

let test_erfc_tail () =
  (* exact tail values: erfc(3) and erfc(5) *)
  Alcotest.(check (float 1e-14)) "erfc 3" 2.209049699858544e-05 (Special.erfc 3.);
  let r5 = Special.erfc 5. /. 1.5374597944280347e-12 in
  check_bool "erfc 5 relative" true (Float.abs (r5 -. 1.) < 1e-8);
  Alcotest.(check (float 1e-12)) "erfc(-x) = 2 - erfc(x)" (2. -. Special.erfc 1.5)
    (Special.erfc (-1.5))

let test_norm_cdf_symmetry () =
  Alcotest.(check (float 1e-12)) "cdf 0" 0.5 (Special.norm_cdf 0.);
  for i = 1 to 8 do
    let x = 0.5 *. float_of_int i in
    Alcotest.(check (float 1e-12))
      "symmetry" 1.
      (Special.norm_cdf x +. Special.norm_cdf (-.x))
  done

let test_norm_ppf_inverse () =
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "cdf(ppf(p)) = p" p
        (Special.norm_cdf (Special.norm_ppf p)))
    [ 1e-10; 1e-6; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. -. 1e-6 ]

let test_norm_ppf_known () =
  Alcotest.(check (float 1e-8)) "z 0.975" 1.959963984540054
    (Special.norm_ppf 0.975);
  check_bool "endpoints" true
    (Special.norm_ppf 0. = neg_infinity && Special.norm_ppf 1. = infinity)

let test_log_gamma () =
  Alcotest.(check (float 1e-10)) "gamma(1)" 0. (Special.log_gamma 1.);
  Alcotest.(check (float 1e-10)) "gamma(5) = 24" (log 24.) (Special.log_gamma 5.);
  Alcotest.(check (float 1e-10)) "gamma(1/2) = sqrt pi"
    (0.5 *. log Float.pi)
    (Special.log_gamma 0.5);
  (* recurrence gamma(x+1) = x gamma(x) *)
  let x = 3.7 in
  Alcotest.(check (float 1e-10)) "recurrence"
    (Special.log_gamma x +. log x)
    (Special.log_gamma (x +. 1.))

let test_rng_uniform_bounds () =
  let rng = Rng.create 51 in
  for _ = 1 to 500 do
    let u = Rng.uniform rng ~lo:(-2.) ~hi:5. in
    check_bool "bounds" true (u >= -2. && u < 5.)
  done

let test_rng_bool_balance () =
  let rng = Rng.create 53 in
  let n = 20000 in
  let trues = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  let p = float_of_int !trues /. float_of_int n in
  check_bool "near half" true (Float.abs (p -. 0.5) < 0.02)

let test_norm_pdf_integrates () =
  (* trapezoid over [-8, 8] with fine steps *)
  let n = 4000 in
  let h = 16. /. float_of_int n in
  let acc = ref 0. in
  for i = 0 to n do
    let x = -8. +. (h *. float_of_int i) in
    let w = if i = 0 || i = n then 0.5 else 1. in
    acc := !acc +. (w *. Special.norm_pdf x)
  done;
  Alcotest.(check (float 1e-8)) "integral 1" 1. (!acc *. h)

let test_erf_erfc_complement () =
  List.iter
    (fun x ->
      Alcotest.(check (float 1e-12)) "erf + erfc = 1" 1.
        (Special.erf x +. Special.erfc x))
    [ -4.; -1.; 0.; 0.5; 2.; 6. ]


let test_rng_xoshiro_spec () =
  (* golden values pin the generator: seeds expand via splitmix64, so the
     stream is a pure function of the integer seed across versions *)
  let a = Rng.create 0 and b = Rng.create 0 in
  let first = Rng.int64 a in
  Alcotest.(check int64) "self consistent" first (Rng.int64 b);
  (* a known statistical spec: two different seeds should not share their
     first 8 outputs *)
  let c = Rng.create 1 in
  let collisions = ref 0 in
  for _ = 1 to 8 do
    if Rng.int64 b = Rng.int64 c then incr collisions
  done;
  check_bool "streams disjoint" true (!collisions = 0)

(* ------------------------------------------------------------------ *)
(* Sampling *)

let test_lhs_stratification () =
  (* each column of an LHS sample has exactly one point per stratum *)
  let rng = Rng.create 23 in
  let k = 64 in
  let m = Sampling.latin_hypercube rng ~k ~r:3 in
  for j = 0 to 2 do
    let col = Linalg.Mat.col m j in
    let ranks = Array.map Special.norm_cdf col in
    Array.sort Float.compare ranks;
    Array.iteri
      (fun i u ->
        let lo = float_of_int i /. float_of_int k in
        let hi = float_of_int (i + 1) /. float_of_int k in
        check_bool "stratified" true (u >= lo -. 1e-9 && u <= hi +. 1e-9))
      ranks
  done

let test_mc_dims () =
  let rng = Rng.create 29 in
  let m = Sampling.monte_carlo rng ~k:5 ~r:7 in
  Alcotest.(check (pair int int)) "dims" (5, 7) (Linalg.Mat.dims m)


let test_halton_primes () =
  Alcotest.(check (array int)) "first primes" [| 2; 3; 5; 7; 11; 13 |]
    (Sampling.nth_primes 6);
  Alcotest.(check int) "many primes" 500 (Array.length (Sampling.nth_primes 500))

let test_halton_low_discrepancy () =
  (* the Halton estimate of E[X^2] = 1 converges faster than plain MC at
     matched sample counts in low dimension; just check closeness *)
  let rng = Rng.create 41 in
  let k = 512 in
  let m = Sampling.halton rng ~k ~r:2 in
  let col = Linalg.Mat.col m 0 in
  let second_moment =
    Array.fold_left (fun acc x -> acc +. (x *. x)) 0. col /. float_of_int k
  in
  check_bool "second moment" true (Float.abs (second_moment -. 1.) < 0.05);
  check_bool "mean" true (Float.abs (Describe.mean col) < 0.05)

let test_halton_deterministic_given_rng () =
  let draw () = Sampling.halton (Rng.create 3) ~k:8 ~r:3 in
  let a = draw () and b = draw () in
  check_bool "same shift, same points" true (Linalg.Mat.approx_equal a b)

let test_scheme_dispatch () =
  let rng = Rng.create 31 in
  let m = Sampling.draw Sampling.Latin_hypercube rng ~k:4 ~r:2 in
  Alcotest.(check (pair int int)) "dims" (4, 2) (Linalg.Mat.dims m);
  Alcotest.(check string) "names" "monte-carlo"
    (Sampling.scheme_name Sampling.Monte_carlo)

(* ------------------------------------------------------------------ *)
(* Describe *)

let test_describe_quantiles () =
  let v = [| 4.; 1.; 3.; 2.; 5. |] in
  check_float "median" 3. (Describe.quantile v 0.5);
  check_float "min" 1. (Describe.quantile v 0.);
  check_float "max" 5. (Describe.quantile v 1.);
  check_float "interp" 1.5 (Describe.quantile v 0.125)

let test_describe_variance () =
  let v = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Describe.variance v);
  check_float "single point" 0. (Describe.variance [| 3. |])

let test_describe_summary () =
  let v = [| 1.; 2.; 3.; 4.; 100. |] in
  let s = Describe.summarize v in
  check_int "count" 5 s.count;
  check_float "mean" 22. s.mean;
  check_float "median" 3. s.median;
  check_bool "skewed right" true (s.skewness > 1.)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_counts () =
  let h = Histogram.build ~bins:4 ~range:(0., 4.) [| 0.5; 1.5; 1.7; 2.5; 3.5; 3.9 |] in
  Alcotest.(check (array int)) "counts" [| 1; 2; 1; 2 |] h.counts;
  check_int "total" 6 h.Histogram.total

let test_histogram_overflow () =
  let h = Histogram.build ~bins:2 ~range:(0., 1.) [| -1.; 0.5; 2.; 3. |] in
  check_int "under" 1 h.Histogram.underflow;
  check_int "over" 2 h.Histogram.overflow

let test_histogram_density_integrates () =
  let rng = Rng.create 37 in
  let v = Rng.gaussian_vec rng 5000 in
  let h = Histogram.build ~bins:20 v in
  let d = Histogram.density h in
  let width = (h.Histogram.hi -. h.Histogram.lo) /. 20. in
  let integral = Array.fold_left (fun acc x -> acc +. (x *. width)) 0. d in
  Alcotest.(check (float 1e-9)) "integrates to 1" 1. integral

let test_histogram_max_inside () =
  (* the maximum datum must land in the last bin, not overflow *)
  let h = Histogram.build ~bins:3 [| 1.; 2.; 3. |] in
  check_int "no overflow" 0 h.Histogram.overflow;
  check_int "total binned" 3 (Array.fold_left ( + ) 0 h.counts)

let test_histogram_edges_centers () =
  let h = Histogram.build ~bins:2 ~range:(0., 2.) [| 0.5; 1.5 |] in
  Alcotest.(check (array (float 1e-12))) "edges" [| 0.; 1.; 2. |]
    (Histogram.bin_edges h);
  Alcotest.(check (array (float 1e-12))) "centers" [| 0.5; 1.5 |]
    (Histogram.bin_centers h)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_relative_error () =
  check_float "eq 59" 0.5
    (Metrics.relative_error ~predicted:[| 1.5 |] ~actual:[| 1. |]);
  check_float "percent" 50.
    (Metrics.relative_error_percent ~predicted:[| 1.5 |] ~actual:[| 1. |])

let test_metrics_rmse_mae () =
  let predicted = [| 1.; 2.; 3. |] and actual = [| 2.; 2.; 5. |] in
  check_float "rmse" (sqrt (5. /. 3.)) (Metrics.rmse ~predicted ~actual);
  check_float "mae" 1. (Metrics.mae ~predicted ~actual);
  check_float "max abs" 2. (Metrics.max_abs_error ~predicted ~actual)

let test_metrics_r_squared () =
  let actual = [| 1.; 2.; 3.; 4. |] in
  check_float "perfect" 1. (Metrics.r_squared ~predicted:actual ~actual);
  let mean_pred = Array.make 4 2.5 in
  check_float "mean predictor" 0. (Metrics.r_squared ~predicted:mean_pred ~actual);
  check_bool "worse than mean" true
    (Metrics.r_squared ~predicted:[| 4.; 3.; 2.; 1. |] ~actual < 0.)

(* ------------------------------------------------------------------ *)
(* Crossval *)

let test_crossval_partition () =
  let folds = Crossval.folds ~n:3 ~size:10 () in
  Alcotest.(check int) "n folds" 3 (List.length folds);
  let all_test =
    List.concat_map (fun f -> Array.to_list f.Crossval.test) folds
  in
  Alcotest.(check int) "covers all" 10 (List.length all_test);
  Alcotest.(check (list int)) "exactly 0..9" (List.init 10 Fun.id)
    (List.sort compare all_test);
  List.iter
    (fun { Crossval.train; test } ->
      Alcotest.(check int) "disjoint" 10
        (Array.length train + Array.length test);
      Array.iter
        (fun t -> check_bool "no leak" false (Array.mem t train))
        test)
    folds

let test_crossval_balanced () =
  let folds = Crossval.folds ~n:4 ~size:10 () in
  List.iter
    (fun f ->
      let s = Array.length f.Crossval.test in
      check_bool "balanced" true (s = 2 || s = 3))
    folds

let test_crossval_validation () =
  Alcotest.check_raises "too few folds"
    (Invalid_argument "Crossval.folds: need at least 2 folds") (fun () ->
      ignore (Crossval.folds ~n:1 ~size:5 ()));
  Alcotest.check_raises "too few points"
    (Invalid_argument "Crossval.folds: need at least 2 data points")
    (fun () -> ignore (Crossval.folds ~n:2 ~size:1 ()))

(* n > size clamps to leave-one-out instead of raising: no fold may ever
   come out empty. *)
let test_crossval_clamp_loo () =
  let folds = Crossval.folds ~n:6 ~size:5 () in
  Alcotest.(check int) "clamped to size" 5 (List.length folds);
  List.iter
    (fun { Crossval.train; test } ->
      Alcotest.(check int) "singleton test" 1 (Array.length test);
      Alcotest.(check int) "rest trains" 4 (Array.length train))
    folds;
  let all_test =
    List.concat_map (fun f -> Array.to_list f.Crossval.test) folds
  in
  Alcotest.(check (list int)) "covers all" (List.init 5 Fun.id)
    (List.sort compare all_test)

(* Uneven size mod n: every fold non-empty, sizes within one of each
   other, for a sweep of awkward (n, size) pairs. *)
let test_crossval_never_empty () =
  let rng = Rng.create 17 in
  List.iter
    (fun (n, size) ->
      let folds = Crossval.folds ~shuffle:rng ~n ~size () in
      let expected = Stdlib.min n size in
      Alcotest.(check int) "fold count" expected (List.length folds);
      let sizes =
        List.map (fun f -> Array.length f.Crossval.test) folds
      in
      let lo = List.fold_left Stdlib.min size sizes in
      let hi = List.fold_left Stdlib.max 0 sizes in
      check_bool "no empty fold" true (lo >= 1);
      check_bool "within one" true (hi - lo <= 1);
      Alcotest.(check int) "covers all" size (List.fold_left ( + ) 0 sizes))
    [ (2, 3); (3, 7); (4, 10); (5, 5); (7, 8); (10, 3); (100, 12) ]

let test_crossval_select () =
  (* candidates scored by |c - 3|: select must find 3 *)
  let best, score =
    Crossval.select ~n:4 ~size:8 ~candidates:[ 1.; 2.; 3.; 4. ]
      (fun c ~train:_ ~test:_ -> Float.abs (c -. 3.))
  in
  check_float "best" 3. best;
  check_float "score" 0. score

let test_crossval_score_average () =
  (* the score is the average over folds of a per-fold quantity *)
  let total =
    Crossval.score ~n:5 ~size:10 (fun ~train:_ ~test ->
        float_of_int (Array.length test))
  in
  check_float "mean test size" 2. total

(* A fold that degenerates to NaN/inf is skipped — the mean is taken
   over the finite folds only, never poisoned. *)
let test_crossval_score_skips_nonfinite () =
  let calls = ref 0 in
  let s =
    Crossval.score ~n:4 ~size:8 (fun ~train:_ ~test:_ ->
        incr calls;
        match !calls with 1 -> Float.nan | 2 -> Float.infinity | _ -> 10.)
  in
  check_float "mean over finite folds" 10. s;
  Alcotest.check_raises "all non-finite raises"
    (Invalid_argument "Crossval.score: every fold produced a non-finite score")
    (fun () ->
      ignore (Crossval.score ~n:3 ~size:6 (fun ~train:_ ~test:_ -> Float.nan)))

let test_crossval_select_skips_nonfinite () =
  (* candidate 2. NaNs on one fold but stays best on the rest; candidate
     5. is all-NaN and must be excluded from the ranking entirely *)
  let fold_no = Hashtbl.create 8 in
  let best, score =
    Crossval.select ~n:4 ~size:8 ~candidates:[ 2.; 5.; 9. ]
      (fun c ~train:_ ~test:_ ->
        let k = try Hashtbl.find fold_no c with Not_found -> 0 in
        Hashtbl.replace fold_no c (k + 1);
        if c = 5. then Float.nan
        else if c = 2. && k = 0 then Float.nan
        else Float.abs (c -. 3.))
  in
  check_float "best skips its NaN fold" 2. best;
  check_float "score over finite folds" 1. score;
  Alcotest.check_raises "all candidates non-finite"
    (Invalid_argument
       "Crossval.select: every candidate scored non-finite on every fold")
    (fun () ->
      ignore
        (Crossval.select ~n:3 ~size:6 ~candidates:[ 1.; 2. ]
           (fun _ ~train:_ ~test:_ -> Float.infinity)))

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"quantile-monotone" ~count:100
      (make
         Gen.(
           pair
             (array_size (int_range 2 30) (float_range (-100.) 100.))
             (pair (float_range 0. 1.) (float_range 0. 1.))))
      (fun (v, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Describe.quantile v lo <= Describe.quantile v hi +. 1e-9);
    Test.make ~name:"norm-cdf-monotone" ~count:200
      (make Gen.(pair (float_range (-6.) 6.) (float_range (-6.) 6.)))
      (fun (a, b) ->
        let lo = Float.min a b and hi = Float.max a b in
        Special.norm_cdf lo <= Special.norm_cdf hi +. 1e-12);
    Test.make ~name:"histogram-conserves-count" ~count:100
      (make Gen.(array_size (int_range 1 200) (float_range (-5.) 5.)))
      (fun v ->
        let h = Histogram.build ~bins:7 v in
        Array.fold_left ( + ) 0 h.Histogram.counts
        + h.Histogram.underflow + h.Histogram.overflow
        = Array.length v);
    Test.make ~name:"rel-error-scale-invariant" ~count:100
      (make
         Gen.(
           pair (float_range 0.1 10.)
             (array_size (int_range 1 20) (float_range 0.5 10.))))
      (fun (s, v) ->
        let predicted = Array.map (fun x -> x +. 0.1) v in
        let e1 = Metrics.relative_error ~predicted ~actual:v in
        let e2 =
          Metrics.relative_error
            ~predicted:(Array.map (( *. ) s) predicted)
            ~actual:(Array.map (( *. ) s) v)
        in
        Float.abs (e1 -. e2) < 1e-9);
  ]

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_streams;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int uniform" `Quick test_rng_int_range_and_mean;
          Alcotest.test_case "int bound" `Quick test_rng_int_rejects;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balance;
          Alcotest.test_case "xoshiro spec" `Quick test_rng_xoshiro_spec;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf known" `Quick test_erf_known_values;
          Alcotest.test_case "erfc tail" `Quick test_erfc_tail;
          Alcotest.test_case "cdf symmetry" `Quick test_norm_cdf_symmetry;
          Alcotest.test_case "ppf inverse" `Quick test_norm_ppf_inverse;
          Alcotest.test_case "ppf known" `Quick test_norm_ppf_known;
          Alcotest.test_case "log gamma" `Quick test_log_gamma;
          Alcotest.test_case "pdf integrates" `Quick test_norm_pdf_integrates;
          Alcotest.test_case "erf complement" `Quick test_erf_erfc_complement;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "lhs stratified" `Quick test_lhs_stratification;
          Alcotest.test_case "mc dims" `Quick test_mc_dims;
          Alcotest.test_case "halton primes" `Quick test_halton_primes;
          Alcotest.test_case "halton moments" `Quick test_halton_low_discrepancy;
          Alcotest.test_case "halton deterministic" `Quick
            test_halton_deterministic_given_rng;
          Alcotest.test_case "dispatch" `Quick test_scheme_dispatch;
        ] );
      ( "describe",
        [
          Alcotest.test_case "quantiles" `Quick test_describe_quantiles;
          Alcotest.test_case "variance" `Quick test_describe_variance;
          Alcotest.test_case "summary" `Quick test_describe_summary;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "overflow" `Quick test_histogram_overflow;
          Alcotest.test_case "density" `Quick test_histogram_density_integrates;
          Alcotest.test_case "max inside" `Quick test_histogram_max_inside;
          Alcotest.test_case "edges" `Quick test_histogram_edges_centers;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "relative error" `Quick test_metrics_relative_error;
          Alcotest.test_case "rmse mae" `Quick test_metrics_rmse_mae;
          Alcotest.test_case "r squared" `Quick test_metrics_r_squared;
        ] );
      ( "crossval",
        [
          Alcotest.test_case "partition" `Quick test_crossval_partition;
          Alcotest.test_case "balanced" `Quick test_crossval_balanced;
          Alcotest.test_case "validation" `Quick test_crossval_validation;
          Alcotest.test_case "clamp to leave-one-out" `Quick
            test_crossval_clamp_loo;
          Alcotest.test_case "never empty" `Quick test_crossval_never_empty;
          Alcotest.test_case "select" `Quick test_crossval_select;
          Alcotest.test_case "score" `Quick test_crossval_score_average;
          Alcotest.test_case "score skips non-finite" `Quick
            test_crossval_score_skips_nonfinite;
          Alcotest.test_case "select skips non-finite" `Quick
            test_crossval_select_skips_nonfinite;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
