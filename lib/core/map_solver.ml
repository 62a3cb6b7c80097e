type solver = Direct_cholesky | Fast_woodbury

let solver_name = function
  | Direct_cholesky -> "cholesky"
  | Fast_woodbury -> "fast-woodbury"

(* Numerical-health telemetry, recorded only when a sink is live. The
   gauges capture the conditioning of the last system each path solved:
   the K x K Woodbury core for the fast path, the prior-scaled M x M
   normal matrix for the direct path. *)
let m_solve_seconds =
  Obs.Metrics.histogram ~help:"MAP solve latency (seconds)"
    "bmf_map_solve_seconds"

let m_solves =
  Obs.Metrics.counter ~help:"MAP solves performed" "bmf_map_solves_total"

let m_woodbury_cond =
  Obs.Metrics.gauge
    ~help:"Condition estimate of the last Woodbury core solved at fit time"
    "bmf_fit_woodbury_cond"

let m_direct_cond =
  Obs.Metrics.gauge
    ~help:"Condition estimate of the last direct (Cholesky) MAP system"
    "bmf_fit_cholesky_cond"

let m_pivot_min =
  Obs.Metrics.gauge ~help:"Smallest Cholesky pivot of the last MAP solve"
    "bmf_map_solve_pivot_min"

(* Spans want the conditioning too, and the gauges only record when the
   metrics sink is on — so the solvers also stash the last estimate here
   for the enclosing span (trace-only runs included). *)
let last_cond = ref nan

let check ~g ~f ~weights ~means ~hyper =
  let k, m = Linalg.Mat.dims g in
  if Array.length f <> k then invalid_arg "Map_solver: sample count mismatch";
  if Array.length weights <> m then
    invalid_arg "Map_solver: weight length mismatch";
  if Array.length means <> m then invalid_arg "Map_solver: mean length mismatch";
  if hyper <= 0. || not (Float.is_finite hyper) then
    invalid_arg "Map_solver: hyper must be positive and finite";
  Array.iter
    (fun w ->
      if w <= 0. || not (Float.is_finite w) then
        invalid_arg "Map_solver: weights must be positive and finite")
    weights

(* sigma_0^2 from the training residual f - G alpha, floored so the
   predictive variance stays positive on an interpolating fit. *)
let noise_estimate ~g ~f coeffs =
  let r = Linalg.Vec.sub f (Linalg.Mat.gemv g coeffs) in
  Float.max 1e-300
    (Linalg.Vec.dot r r /. float_of_int (Stdlib.max 1 (Linalg.Mat.rows g)))

(* Residual of the prior mean: f - G mu. Skipped when mu = 0. *)
let prior_residual ~g ~f ~means =
  if Array.for_all (fun x -> x = 0.) means then f
  else Linalg.Vec.sub f (Linalg.Mat.gemv g means)

(* Direct path (eq. 28-35): the M x M system, solved in the prior-scaled
   basis alpha = mu + S gamma with S = diag(w^-1/2):
     (S G^T G S + t I) gamma = S G^T (f - G mu).
   Mathematically identical to (G^T G + t W) beta = G^T (f - G mu) but
   with a condition number independent of the weight spread. *)
let solve_direct ~g ~f ~weights ~means ~hyper =
  let m = Linalg.Mat.cols g in
  let r = prior_residual ~g ~f ~means in
  let s = Array.map (fun w -> 1. /. sqrt w) weights in
  let gs = Linalg.Mat.mul_cols g s in
  let gram = Linalg.Mat.gram gs in
  let shifted = Linalg.Mat.add_diag gram (Array.make m hyper) in
  let rhs = Linalg.Mat.gemv_t gs r in
  let fact = Linalg.Cholesky.factorize shifted in
  if Obs.live () then begin
    last_cond := Linalg.Cholesky.cond_estimate fact;
    Obs.Metrics.set m_direct_cond !last_cond;
    Obs.Metrics.set m_pivot_min (fst (Linalg.Cholesky.pivot_extrema fact))
  end;
  let gamma = Linalg.Cholesky.solve fact rhs in
  Array.init m (fun i -> means.(i) +. (s.(i) *. gamma.(i)))

(* Fast path (eq. 53-58): the paper's low-rank identity, in the stable
   dual form
     alpha = mu + W^-1 G^T (t I + G W^-1 G^T)^-1 (f - G mu)
   with a single K x K Cholesky solve. Exact — tests assert agreement
   with the direct path to roundoff. *)
let solve_fast ~g ~f ~weights ~means ~hyper =
  let r = prior_residual ~g ~f ~means in
  let w_inv = Array.map (fun w -> 1. /. w) weights in
  let core = Linalg.Mat.weighted_outer_gram g w_inv in
  let ((_, fact) as solved) =
    Linalg.Woodbury.solve ~g ~w_inv ~means ~core ~r ~hyper
  in
  if Obs.live () then begin
    last_cond := Linalg.Cholesky.cond_estimate fact;
    Obs.Metrics.set m_woodbury_cond !last_cond;
    Obs.Metrics.set m_pivot_min (fst (Linalg.Cholesky.pivot_extrema fact))
  end;
  solved

let dispatch ~solver ~g ~f ~weights ~means ~hyper =
  match solver with
  | Direct_cholesky -> solve_direct ~g ~f ~weights ~means ~hyper
  | Fast_woodbury -> fst (solve_fast ~g ~f ~weights ~means ~hyper)

let solve_raw ~solver ~g ~f ~weights ~means ~hyper =
  check ~g ~f ~weights ~means ~hyper;
  if not (Obs.live ()) then dispatch ~solver ~g ~f ~weights ~means ~hyper
  else
    Obs.Trace.with_span ~cat:"core" "map_solve" (fun sp ->
        let k, m = Linalg.Mat.dims g in
        Obs.Trace.set_attr sp "solver" (Obs.Trace.Str (solver_name solver));
        Obs.Trace.set_attr sp "samples" (Obs.Trace.Int k);
        Obs.Trace.set_attr sp "terms" (Obs.Trace.Int m);
        Obs.Trace.set_attr sp "hyper" (Obs.Trace.Float hyper);
        let t0 = Obs.Clock.now_s () in
        let x = dispatch ~solver ~g ~f ~weights ~means ~hyper in
        Obs.Metrics.observe m_solve_seconds (Obs.Clock.now_s () -. t0);
        Obs.Metrics.inc m_solves;
        Obs.Trace.set_attr sp "cond_estimate" (Obs.Trace.Float !last_cond);
        x)

let solve ?solver ~g ~f ~prior ~hyper () =
  let k, m = Linalg.Mat.dims g in
  let solver =
    match solver with
    | Some s -> s
    | None -> if k < m then Fast_woodbury else Direct_cholesky
  in
  solve_raw ~solver ~g ~f ~weights:prior.Prior.weights
    ~means:prior.Prior.means ~hyper
