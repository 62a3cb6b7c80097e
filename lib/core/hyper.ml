type grid = float list

let m_cv_candidates =
  Obs.Metrics.counter ~help:"Hyperparameter candidates evaluated in CV"
    "bmf_cv_candidates_total"

let m_cv_folds =
  Obs.Metrics.counter ~help:"Cross-validation folds evaluated"
    "bmf_cv_folds_total"

let m_cv_best_error =
  Obs.Metrics.gauge ~help:"CV error of the last selected hyperparameter"
    "bmf_cv_best_error"

let m_cv_selected =
  Obs.Metrics.gauge ~help:"Last selected hyperparameter value"
    "bmf_cv_selected_hyper"

let m_cv_residual =
  Obs.Metrics.gauge
    ~help:"Prior-residual norm of the last cross-validated training set"
    "bmf_cv_residual_norm"

let prior_residual ~g ~f ~(prior : Prior.t) =
  Map_solver.prior_residual ~g ~f ~means:prior.means

let auto_grid ?(decades_below = 5) ?(decades_above = 3) ?(per_decade = 1) ~g
    ~f ~prior () =
  if per_decade <= 0 then invalid_arg "Hyper.auto_grid: per_decade <= 0";
  let k = Linalg.Mat.rows g in
  let r = prior_residual ~g ~f ~prior in
  (* Center on the residual *variance*: with a zero-mean prior the
     residual is f itself, and its mean would otherwise swamp the scale
     (the noise level sits far below mean^2). *)
  let kf = float_of_int (Stdlib.max 1 k) in
  let mean = Linalg.Vec.sum r /. kf in
  let var = (Linalg.Vec.dot r r /. kf) -. (mean *. mean) in
  let scale =
    if var > 0. then var
    else Float.max 1e-300 (Linalg.Vec.dot r r /. kf)
  in
  let points = (decades_below + decades_above) * per_decade in
  List.init (points + 1) (fun i ->
      let decade =
        (float_of_int i /. float_of_int per_decade) -. float_of_int decades_below
      in
      scale *. (10. ** decade))

let submatrix_rows g idx =
  let _, m = Linalg.Mat.dims g in
  Linalg.Mat.init (Array.length idx) m (fun i j -> Linalg.Mat.get g idx.(i) j)

let subvector f idx = Array.map (fun i -> f.(i)) idx

(* Held-out error denominator: relative error normalizes by |f_v|, but a
   validation group of near-zero responses (late-stage samples centered
   on zero) would inflate every candidate's score towards inf/NaN. Below
   the floor we fall back to the absolute error (denominator 1). *)
let rel_denom_floor = 1e-12

let error_denom fv =
  let n = Linalg.Vec.nrm2 fv in
  if n >= rel_denom_floor then n else 1.

(* Evaluate all candidates on one fold, adding each candidate's held-out
   relative error into [err_acc]. The fast path shares work across
   candidates: the fold matrix B = G W^-1 G^T and residual r are
   computed once, then each candidate costs one K x K Cholesky of
   (t I + B) in [Map_solver.woodbury]. Any other solver runs its naive
   per-candidate solve — the conventional-solver fitting cost of
   Fig. 5. *)
let fold_errors ~solver ~(prior : Prior.t) ~gt ~ft ~gv ~fv ~candidates
    ~err_acc =
  let solve =
    match solver with
    | Map_solver.Fast_woodbury ->
        let w_inv = Array.map (fun w -> 1. /. w) prior.weights in
        let r = prior_residual ~g:gt ~f:ft ~prior in
        let core = Linalg.Mat.weighted_outer_gram gt w_inv in
        fun t ->
          fst
            (Map_solver.woodbury ~g:gt ~w_inv ~means:prior.means ~core ~r
               ~hyper:t)
    | Map_solver.Direct_cholesky ->
        fun t ->
          Map_solver.solve_raw ~solver ~g:gt ~f:ft ~weights:prior.weights
            ~means:prior.means ~hyper:t
  in
  let fv_norm = error_denom fv in
  List.iteri
    (fun ci t ->
      let pred = Linalg.Mat.gemv gv (solve t) in
      err_acc.(ci) <-
        err_acc.(ci) +. (Linalg.Vec.dist2 pred fv /. fv_norm))
    candidates

let cv_errors ?rng ?(solver = Map_solver.Fast_woodbury) ~folds ~g ~f ~prior
    ~candidates () =
  if folds < 2 then invalid_arg "Hyper.cv_errors: need at least 2 folds";
  if candidates = [] then invalid_arg "Hyper.cv_errors: no candidates";
  List.iter
    (fun t ->
      if t <= 0. || not (Float.is_finite t) then
        invalid_arg "Hyper.cv_errors: candidates must be positive")
    candidates;
  let k = Linalg.Mat.rows g in
  if k < 2 then invalid_arg "Hyper.cv_errors: need at least 2 samples";
  if Prior.size prior <> Linalg.Mat.cols g then
    invalid_arg "Hyper.cv_errors: prior size mismatch";
  let folds = Stdlib.min folds k in
  let fold_list = Stats.Crossval.folds ?shuffle:rng ~n:folds ~size:k () in
  let n_folds = List.length fold_list in
  let n_cand = List.length candidates in
  Obs.Trace.with_span ~cat:"core" "hyper_cv" @@ fun cv_sp ->
  Obs.Trace.set_attr cv_sp "folds" (Obs.Trace.Int n_folds);
  Obs.Trace.set_attr cv_sp "candidates" (Obs.Trace.Int n_cand);
  Obs.Trace.set_attr cv_sp "samples" (Obs.Trace.Int k);
  if Obs.live () then
    Obs.Metrics.set m_cv_residual
      (Linalg.Vec.nrm2 (prior_residual ~g ~f ~prior));
  (* Each fold is one pool task — submatrix build plus Woodbury sweep on
     its own domain, writing a private error vector. The vectors are
     merged below in fold order, so the floating-point accumulation
     order (and hence the selected hyper) is bit-identical to the
     sequential sweep at any -j. *)
  let eval_fold (fi, { Stats.Crossval.train; test }) =
    Obs.Trace.with_span ~cat:"core" "cv_fold" @@ fun sp ->
    Obs.Trace.set_attr sp "fold" (Obs.Trace.Int fi);
    Obs.Trace.set_attr sp "train" (Obs.Trace.Int (Array.length train));
    Obs.Trace.set_attr sp "test" (Obs.Trace.Int (Array.length test));
    Obs.Metrics.inc m_cv_folds;
    Obs.Metrics.inc ~by:(float_of_int n_cand) m_cv_candidates;
    let gt = submatrix_rows g train and ft = subvector f train in
    let gv = submatrix_rows g test and fv = subvector f test in
    let err_acc = Array.make n_cand 0. in
    fold_errors ~solver ~prior ~gt ~ft ~gv ~fv ~candidates ~err_acc;
    err_acc
  in
  let per_fold =
    Parallel.Pool.map eval_fold
      (Array.of_list (List.mapi (fun fi fold -> (fi, fold)) fold_list))
  in
  let err_acc = Array.make n_cand 0. in
  Array.iter
    (fun fold_err ->
      for ci = 0 to n_cand - 1 do
        err_acc.(ci) <- err_acc.(ci) +. fold_err.(ci)
      done)
    per_fold;
  List.mapi
    (fun i t -> (t, err_acc.(i) /. float_of_int n_folds))
    candidates

let select ?rng ?solver ?(folds = 4) ?candidates ~g ~f ~prior () =
  let candidates =
    match candidates with
    | Some c -> c
    | None -> auto_grid ~g ~f ~prior ()
  in
  let scored = cv_errors ?rng ?solver ~folds ~g ~f ~prior ~candidates () in
  (* Rank finite scores only: a candidate whose sweep degenerated to
     inf/NaN must not win by vacuous comparison. *)
  match List.filter (fun (_, e) -> Float.is_finite e) scored with
  | [] -> invalid_arg "Hyper.select: every candidate scored non-finite"
  | first :: rest ->
      let ((hyper, err) as best) =
        List.fold_left
          (fun ((_, be) as best) ((_, e) as cur) ->
            if e < be then cur else best)
          first rest
      in
      Obs.Metrics.set m_cv_selected hyper;
      Obs.Metrics.set m_cv_best_error err;
      best

(* ------------------------------------------------------------------ *)
(* Marginal-likelihood (evidence) selection — see the .mli note.       *)

let log_evidence_with ~b ~r ~noise ~scale =
  let k = Array.length r in
  (* C = noise I + scale B *)
  let c =
    Linalg.Mat.add_diag (Linalg.Mat.scale scale b) (Array.make k noise)
  in
  let chol = Linalg.Cholesky.factorize c in
  let alpha = Linalg.Cholesky.solve chol r in
  let quad = Linalg.Vec.dot r alpha in
  -0.5
  *. (quad +. Linalg.Cholesky.log_det chol
     +. (float_of_int k *. log (2. *. Float.pi)))

let log_evidence ?(scale = 1.) ~g ~f ~prior ~noise () =
  if noise <= 0. || not (Float.is_finite noise) then
    invalid_arg "Hyper.log_evidence: noise must be positive";
  if scale <= 0. || not (Float.is_finite scale) then
    invalid_arg "Hyper.log_evidence: scale must be positive";
  if Prior.size prior <> Linalg.Mat.cols g then
    invalid_arg "Hyper.log_evidence: prior size mismatch";
  let w_inv = Array.map (fun w -> 1. /. w) prior.Prior.weights in
  let b = Linalg.Mat.weighted_outer_gram g w_inv in
  let r = prior_residual ~g ~f ~prior in
  log_evidence_with ~b ~r ~noise ~scale

(* Data-scaled default grids: noise spans decades below the residual
   variance, scale spans around 1. *)
let default_noise_grid ~g ~f ~prior =
  auto_grid ~decades_below:6 ~decades_above:1 ~g ~f ~prior ()

let default_scale_grid = [ 0.01; 0.03; 0.1; 0.3; 1.; 3.; 10. ]

let select_evidence ?noise_candidates ?scale_candidates ~g ~f ~prior () =
  let noise_candidates =
    match noise_candidates with
    | Some c -> c
    | None -> default_noise_grid ~g ~f ~prior
  in
  let scale_candidates =
    match (prior.Prior.kind, scale_candidates) with
    | Prior.Zero_mean, _ -> [ 1. ]
    | Prior.Nonzero_mean, Some c -> c
    | Prior.Nonzero_mean, None -> default_scale_grid
  in
  let w_inv = Array.map (fun w -> 1. /. w) prior.Prior.weights in
  let b = Linalg.Mat.weighted_outer_gram g w_inv in
  let r = prior_residual ~g ~f ~prior in
  let best = ref None in
  List.iter
    (fun noise ->
      List.iter
        (fun scale ->
          let le = log_evidence_with ~b ~r ~noise ~scale in
          match !best with
          | Some (_, _, top) when le <= top -> ()
          | _ -> best := Some (noise, scale, le))
        scale_candidates)
    noise_candidates;
  match !best with
  | None -> invalid_arg "Hyper.select_evidence: empty candidate grids"
  | Some (noise, scale, le) ->
      let hyper =
        match prior.Prior.kind with
        | Prior.Zero_mean -> noise
        | Prior.Nonzero_mean -> noise /. scale
      in
      (hyper, le)
