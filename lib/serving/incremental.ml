(* The Woodbury core C = hyper I + G W^-1 G^T is the only dense object
   whose factorization the MAP solve needs (Map_solver's fast path,
   eq. 53-58). Appending a late-stage sample grows C by one bordering
   row/column, and a Cholesky factor extends under bordering in O(K^2):

     C' = [ C  c ]      L' = [ L      0 ]    with  L l = c
          [ c^T d ]          [ l^T  sqrt(d - l.l) ]

   so folding K' new samples into a fitted model costs
   O(K' (KM + K^2)) — versus O(K^2 M + K^3) for a cold refit — and
   never touches an M x M system. The result is exact: the same C gives
   the same posterior, so coefficients match a cold refit to roundoff
   (test-enforced at 1e-8).

   Storage lives in capacity-doubling Bigarray-backed matrices: [g]
   holds the basis rows (cap x M) and [l] the growing Cholesky factor's
   lower triangle (cap x cap); only the first [k] rows are live. The
   bordering column c is [Linalg.Mat.gemv_into] over the live rows of
   [g], solved in place by [Linalg.Cholesky.forward] on the live k x k
   block of [l], so a row costs no allocation that grows with K.
   Coefficients come from the fit's own code: [Linalg.Cholesky.solve]
   on the live factor, then [Linalg.Woodbury.dual_coeffs]; new basis
   rows from [Polybasis.Basis.design_matrix]. *)

type t = {
  meta : Artifact.meta;
  rev : int;
  cv_error : float;
  basis : Polybasis.Basis.t;
  prior : Bmf.Prior.t;
  hyper : float;
  w_inv : Linalg.Vec.t;
  mutable k : int;
  mutable cap : int; (* row capacity of [g] and [l] *)
  mutable g : Linalg.Mat.t; (* cap x M basis rows; first k live *)
  mutable l : Linalg.Mat.t; (* cap x cap lower-triangular factor *)
  mutable f : float array; (* observed responses *)
  mutable resid : float array; (* f_i - g_i . mu *)
  h_scratch : float array; (* length M: W^-1 row, reused per add_row *)
  mutable border : float array;
      (* length cap: the bordering row of [l], solved in place *)
}

let num_samples t = t.k

let num_terms t = Bmf.Prior.size t.prior

let m_samples =
  Obs.Metrics.counter ~help:"Samples folded in by incremental updates"
    "bmf_incremental_samples_total"

let m_batches =
  Obs.Metrics.counter ~help:"Incremental update batches applied"
    "bmf_incremental_batches_total"

let m_seconds =
  Obs.Metrics.histogram ~help:"Incremental batch update latency (seconds)"
    "bmf_incremental_update_seconds"

let m_pivot_min =
  Obs.Metrics.gauge
    ~help:"Smallest new Cholesky pivot across the last incremental batch"
    "bmf_incremental_pivot_min"

let of_artifact (a : Artifact.t) =
  let k = Artifact.num_samples a in
  let m = Linalg.Mat.cols a.Artifact.g in
  let means = a.Artifact.prior.Bmf.Prior.means in
  let cap = Stdlib.max 8 k in
  let g = Linalg.Mat.create cap m in
  Linalg.Mat.blit_rows ~src:a.Artifact.g ~dst:g ~dst_row:0;
  let l = Linalg.Mat.create cap cap in
  Linalg.Mat.blit_lower ~src:a.Artifact.chol ~dst:l k;
  let resid =
    Array.init k (fun i ->
        a.Artifact.f.(i) -. Linalg.Mat.row_dot a.Artifact.g i means)
  in
  let f = Array.make cap 0. in
  Array.blit a.Artifact.f 0 f 0 k;
  let resid_buf = Array.make cap 0. in
  Array.blit resid 0 resid_buf 0 k;
  {
    meta = a.Artifact.meta;
    rev = a.Artifact.rev;
    cv_error = a.Artifact.cv_error;
    basis = Artifact.basis a;
    prior = a.Artifact.prior;
    hyper = a.Artifact.hyper;
    w_inv = Array.map (fun w -> 1. /. w) a.Artifact.prior.Bmf.Prior.weights;
    k;
    cap;
    g;
    l;
    f;
    resid = resid_buf;
    h_scratch = Array.make m 0.;
    border = Array.make cap 0.;
  }

(* Double the row capacity, copying live rows (and for [l], the live
   lower triangle) into the fresh storage. *)
let grow t =
  let m = num_terms t in
  let cap = 2 * t.cap in
  let g = Linalg.Mat.create cap m in
  Linalg.Mat.blit_rows ~src:(Linalg.Mat.view_rows t.g t.k) ~dst:g ~dst_row:0;
  let l = Linalg.Mat.create cap cap in
  Linalg.Mat.blit_lower ~src:t.l ~dst:l t.k;
  let f = Array.make cap 0. in
  Array.blit t.f 0 f 0 t.k;
  let resid = Array.make cap 0. in
  Array.blit t.resid 0 resid 0 t.k;
  t.cap <- cap;
  t.g <- g;
  t.l <- l;
  t.f <- f;
  t.resid <- resid;
  t.border <- Array.make cap 0.

let add_row t ~row ~value =
  let m = num_terms t in
  if Array.length row <> m then
    invalid_arg "Incremental.add_row: basis row length mismatch";
  if t.k >= t.cap then grow t;
  let k = t.k in
  (* new bordering column of C: c_i = g_i . (W^-1 row), d = row . (W^-1 row) + hyper *)
  let h = t.h_scratch in
  Linalg.Vec.mul_into t.w_inv row h;
  let diag = Linalg.Vec.dot row h +. t.hyper in
  let c = t.border in
  Linalg.Mat.gemv_into (Linalg.Mat.view_rows t.g k) h c;
  (* L l_new = c, in place; then the pivot d - l_new . l_new *)
  Linalg.Cholesky.forward t.l ~n:k c ~dst:c;
  let d_sq = ref diag in
  for i = 0 to k - 1 do
    let li = Array.unsafe_get c i in
    d_sq := !d_sq -. (li *. li)
  done;
  let d_sq = !d_sq in
  if d_sq <= 0. || not (Float.is_finite d_sq) then
    failwith "Incremental.add_row: update lost positive definiteness";
  c.(k) <- sqrt d_sq;
  Linalg.Mat.set_row_prefix t.l k c (k + 1);
  Linalg.Mat.set_row t.g k row;
  t.f.(k) <- value;
  t.resid.(k) <- value -. Linalg.Vec.dot row t.prior.Bmf.Prior.means;
  t.k <- k + 1

let add_point t ~x ~value =
  add_row t ~row:(Polybasis.Basis.eval_row t.basis x) ~value

let add_batch t ~xs ~f =
  let n = Linalg.Mat.rows xs in
  if Array.length f <> n then
    invalid_arg "Incremental.add_batch: sample count mismatch";
  if not (Obs.live ()) then begin
    let gq = Polybasis.Basis.design_matrix t.basis xs in
    for i = 0 to n - 1 do
      add_row t ~row:(Linalg.Mat.row gq i) ~value:f.(i)
    done
  end
  else
    Obs.Trace.with_span ~cat:"serving" "incremental_update" @@ fun sp ->
    Obs.Trace.set_attr sp "new_samples" (Obs.Trace.Int n);
    Obs.Trace.set_attr sp "samples_before" (Obs.Trace.Int t.k);
    let t0 = Obs.Clock.now_s () in
    let gq = Polybasis.Basis.design_matrix t.basis xs in
    (* smallest bordering pivot accepted in this batch: the tightest
       margin to losing positive definiteness. [add_row] leaves the
       pivot it accepted after the solved column in [border]. *)
    let mn = ref infinity in
    for i = 0 to n - 1 do
      add_row t ~row:(Linalg.Mat.row gq i) ~value:f.(i);
      let d = t.border.(t.k - 1) in
      if d < !mn then mn := d
    done;
    Obs.Metrics.observe m_seconds (Obs.Clock.now_s () -. t0);
    Obs.Metrics.inc ~by:(float_of_int n) m_samples;
    Obs.Metrics.inc m_batches;
    if Float.is_finite !mn then begin
      Obs.Metrics.set m_pivot_min !mn;
      Obs.Trace.set_attr sp "pivot_min" (Obs.Trace.Float !mn)
    end

(* The live k x k factor of C, compacted out of the capacity-sized
   storage. *)
let factor t =
  let chol = Linalg.Mat.create t.k t.k in
  Linalg.Mat.blit_lower ~src:t.l ~dst:chol t.k;
  chol

(* Solve C v = resid through the factor, then map back to the
   coefficient space: alpha = mu + W^-1 G^T v. *)
let coeffs_of t chol =
  let v =
    Linalg.Cholesky.solve (Linalg.Cholesky.of_factor chol)
      (Array.sub t.resid 0 t.k)
  in
  Linalg.Woodbury.dual_coeffs
    ~g:(Linalg.Mat.view_rows t.g t.k)
    ~w_inv:t.w_inv ~means:t.prior.Bmf.Prior.means v

let coeffs t = coeffs_of t (factor t)

let to_artifact t =
  let k = t.k in
  let g = Linalg.Mat.copy (Linalg.Mat.view_rows t.g k) in
  let f = Array.sub t.f 0 k in
  let chol = factor t in
  let coeffs = coeffs_of t chol in
  {
    Artifact.meta = t.meta;
    rev = t.rev + 1;
    hyper = t.hyper;
    cv_error = t.cv_error;
    sigma0_sq = Bmf.Map_solver.noise_estimate ~g ~f coeffs;
    basis_dim = Polybasis.Basis.dim t.basis;
    terms = Polybasis.Basis.terms t.basis;
    prior = t.prior;
    coeffs;
    g;
    f;
    chol;
  }
