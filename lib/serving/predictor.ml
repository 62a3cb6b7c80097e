type t = {
  label : string;  (* "circuit/metric", for error messages *)
  basis : Polybasis.Basis.t;
  coeffs : Linalg.Vec.t;
  w_inv : Linalg.Vec.t;
  hyper : float;
  sigma0_sq : float;
  g : Linalg.Mat.t;
  chol : Linalg.Cholesky.t;
}

let m_predictions =
  Obs.Metrics.counter ~help:"Points served by the batch predictor"
    "bmf_predictions_total"

let m_batches =
  Obs.Metrics.counter ~help:"Prediction batches served"
    "bmf_predict_batches_total"

let m_seconds =
  Obs.Metrics.histogram ~help:"Batch predict latency (seconds)"
    "bmf_predict_seconds"

(* Batch bracket: span + latency histogram + served-point counters
   around the untouched numerical body. Every entry point passes through
   it exactly once per batch. *)
let observed name ~batch ~with_std impl =
  if not (Obs.live ()) then impl ()
  else
    Obs.Trace.with_span ~cat:"serving" name (fun sp ->
        Obs.Trace.set_attr sp "batch" (Obs.Trace.Int batch);
        Obs.Trace.set_attr sp "with_std" (Obs.Trace.Bool with_std);
        let t0 = Obs.Clock.now_s () in
        let out = impl () in
        Obs.Metrics.observe m_seconds (Obs.Clock.now_s () -. t0);
        Obs.Metrics.inc ~by:(float_of_int batch) m_predictions;
        Obs.Metrics.inc m_batches;
        out)

let of_artifact (a : Artifact.t) =
  {
    label =
      a.Artifact.meta.Artifact.circuit ^ "/" ^ a.Artifact.meta.Artifact.metric;
    basis = Artifact.basis a;
    coeffs = a.Artifact.coeffs;
    w_inv = Array.map (fun w -> 1. /. w) a.Artifact.prior.Bmf.Prior.weights;
    hyper = a.Artifact.hyper;
    sigma0_sq = a.Artifact.sigma0_sq;
    g = a.Artifact.g;
    chol = Linalg.Cholesky.of_factor a.Artifact.chol;
  }

let basis t = t.basis

(* Validate the whole batch once, up front: a wrong query width should
   name the model and the expected dimension instead of surfacing as an
   index error deep inside the Hermite recurrences. *)
let check_batch t what (xs : Linalg.Mat.t) =
  let dim = Polybasis.Basis.dim t.basis in
  if Linalg.Mat.cols xs <> dim then
    invalid_arg
      (Printf.sprintf
         "Predictor.%s (model %s): query dimension mismatch: expected %d \
          variables per point, got %d"
         what t.label dim (Linalg.Mat.cols xs))

(* Preallocated serving arena for the [_into] predict path. One scratch
   belongs to one predictor value (physical identity): the design arena
   is sized for that model's basis and posterior core, and the embedded
   basis scratch is only valid for that exact basis. The daemon keeps
   one per (executor, model) and rebuilds on model swap. *)
module Scratch = struct
  type pred = t

  type t = {
    pred : pred;
    mutable capacity : int; (* rows the design arena can hold *)
    mutable gq : Linalg.Mat.t; (* capacity x M design arena *)
    bscratch : Polybasis.Basis.Scratch.t;
    h : Linalg.Vec.t array; (* 4 lanes of length M: W^-1 g0 *)
    u : Linalg.Vec.t array; (* 4 lanes of length K: G h *)
    y : Linalg.Vec.t; (* length K: forward-solve intermediate *)
    v : Linalg.Vec.t; (* length K: C^-1 u *)
  }

  let create ?(capacity = 64) pred =
    let m = Polybasis.Basis.size pred.basis in
    let k_core = Linalg.Mat.rows pred.g in
    let capacity = Stdlib.max 1 capacity in
    {
      pred;
      capacity;
      gq = Linalg.Mat.create capacity m;
      bscratch = Polybasis.Basis.Scratch.create pred.basis;
      h = Array.init 4 (fun _ -> Linalg.Vec.create m);
      u = Array.init 4 (fun _ -> Linalg.Vec.create k_core);
      y = Linalg.Vec.create k_core;
      v = Linalg.Vec.create k_core;
    }

  let for_predictor s pred = s.pred == pred

  (* Grow the design arena geometrically; steady state never hits this. *)
  let ensure s rows =
    if rows > s.capacity then begin
      let cap = ref s.capacity in
      while rows > !cap do
        cap := !cap * 2
      done;
      s.capacity <- !cap;
      s.gq <- Linalg.Mat.create !cap (Polybasis.Basis.size s.pred.basis)
    end
end

let check_scratch t what (scratch : Scratch.t) =
  if not (Scratch.for_predictor scratch t) then
    invalid_arg
      (Printf.sprintf
         "Predictor.%s (model %s): scratch belongs to a different predictor"
         what t.label)

let check_dst t what name dst needed =
  if Array.length dst < needed then
    invalid_arg
      (Printf.sprintf
         "Predictor.%s (model %s): %s buffer too short: need %d, got %d" what
         t.label name needed (Array.length dst))

(* The mean kernel: basis rows land in the scratch design arena, the
   mean gemv writes into the caller's buffer. Returns the design view,
   which the variance kernel reads. *)
let means_into t (scratch : Scratch.t) xs means =
  let k = Linalg.Mat.rows xs in
  Scratch.ensure scratch k;
  let gq = Linalg.Mat.view_rows scratch.Scratch.gq k in
  Polybasis.Basis.design_matrix_into t.basis ~scratch:scratch.Scratch.bscratch
    xs ~dst:gq;
  Linalg.Mat.gemv_into gq t.coeffs means;
  gq

let predict_into t ~scratch xs ~means =
  check_batch t "predict_into" xs;
  check_scratch t "predict_into" scratch;
  let k = Linalg.Mat.rows xs in
  check_dst t "predict_into" "means" means k;
  observed "predict_into" ~batch:k ~with_std:false @@ fun () ->
  ignore (means_into t scratch xs means)

module A = Bigarray.Array1

(* u_l = G h_l for four lanes in one sweep over [g]: each load of G
   feeds four independent register sums, and each sum keeps the
   left-to-right order of [Mat.gemv_into]. *)
let gemv4_into (g : Linalg.Mat.t) (h : Linalg.Vec.t array)
    (u : Linalg.Vec.t array) =
  let gd = Linalg.Mat.data g and m = Linalg.Mat.cols g in
  let h0 = h.(0) and h1 = h.(1) and h2 = h.(2) and h3 = h.(3) in
  let u0 = u.(0) and u1 = u.(1) and u2 = u.(2) and u3 = u.(3) in
  for r = 0 to Linalg.Mat.rows g - 1 do
    let base = r * m in
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    for j = 0 to m - 1 do
      let x = A.unsafe_get gd (base + j) in
      a0 := !a0 +. (x *. Array.unsafe_get h0 j);
      a1 := !a1 +. (x *. Array.unsafe_get h1 j);
      a2 := !a2 +. (x *. Array.unsafe_get h2 j);
      a3 := !a3 +. (x *. Array.unsafe_get h3 j)
    done;
    Array.unsafe_set u0 r !a0;
    Array.unsafe_set u1 r !a1;
    Array.unsafe_set u2 r !a2;
    Array.unsafe_set u3 r !a3
  done

(* var = sigma0^2/hyper (g0.h - u.C^-1 u) + sigma0^2 for the design row
   [r], from its lane's h and u; writes [sqrt var] into [stds.(r)].
   [if var > 0. then var else ...] is [Float.max 0. var] spelled
   without the function call (bit-identical for negative zero and
   NaN). *)
let std_into t (s : Scratch.t) (gd : Linalg.Mat.buf) m r h u
    (stds : Linalg.Vec.t) =
  let base = r * m in
  let q = ref 0. in
  for j = 0 to m - 1 do
    q := !q +. (A.unsafe_get gd (base + j) *. Array.unsafe_get h j)
  done;
  Linalg.Cholesky.solve_into t.chol u ~y:s.Scratch.y ~dst:s.Scratch.v;
  let v = s.Scratch.v in
  let uv = ref 0. in
  for i = 0 to Array.length u - 1 do
    uv := !uv +. (Array.unsafe_get u i *. Array.unsafe_get v i)
  done;
  let var = (t.sigma0_sq /. t.hyper *. (!q -. !uv)) +. t.sigma0_sq in
  Array.unsafe_set stds r
    (sqrt (if var > 0. then var else if var <> var then var else 0.))

(* Predictive variance from the stored posterior core, in the dual form
   that never touches the M x M covariance:

     Sigma = sigma0^2 (G^T G + hyper W)^-1
           = (sigma0^2 / hyper) [W^-1 - W^-1 G^T C^-1 G W^-1]

   with C = hyper I + G W^-1 G^T, whose Cholesky factor the artifact
   stores. Per query row g0 of [gq]: h = W^-1 g0, u = G h, then
   var = sigma0^2/hyper (g0.h - u^T C^-1 u) + sigma0^2, at
   O(KM + K^2) instead of O(M^2) — exactly [Posterior.predict] in exact
   arithmetic.

   Rows [lo, hi) go four at a time, so the K x M sweep over G (nearly
   the whole cost) is shared by four queries. A short last block
   repeats its last row: the extra lanes are computed, never written.
   Every row's std has the bits of a per-row evaluation, whatever its
   position in the batch. Zero allocation. *)
let variances_into t (s : Scratch.t) gq ~lo ~hi (stds : Linalg.Vec.t) =
  let gd = Linalg.Mat.data gq and m = Linalg.Mat.cols gq in
  for blk = 0 to ((hi - lo + 3) / 4) - 1 do
    let r0 = lo + (4 * blk) in
    (* h = W^-1 g0 per lane *)
    for l = 0 to 3 do
      let base = Int.min (r0 + l) (hi - 1) * m in
      let h = Array.unsafe_get s.Scratch.h l in
      for j = 0 to m - 1 do
        Array.unsafe_set h j
          (Array.unsafe_get t.w_inv j *. A.unsafe_get gd (base + j))
      done
    done;
    gemv4_into t.g s.Scratch.h s.Scratch.u;
    for l = 0 to Int.min 3 (hi - 1 - r0) do
      std_into t s gd m (r0 + l)
        (Array.unsafe_get s.Scratch.h l)
        (Array.unsafe_get s.Scratch.u l)
        stds
    done
  done

let predict_with_std_into t ~scratch xs ~means ~stds =
  check_batch t "predict_with_std_into" xs;
  check_scratch t "predict_with_std_into" scratch;
  let k = Linalg.Mat.rows xs in
  check_dst t "predict_with_std_into" "means" means k;
  check_dst t "predict_with_std_into" "stds" stds k;
  observed "predict_with_std_into" ~batch:k ~with_std:true @@ fun () ->
  let gq = means_into t scratch xs means in
  (* Sequential variances: the daemon already shards queries across
     worker domains, so the serving plane keeps its parallelism while
     each domain's loop stays allocation-free. *)
  variances_into t scratch gq ~lo:0 ~hi:k stds

(* The allocating entry points: a fresh scratch sized to the batch, then
   the kernels above. *)
let predict t xs =
  check_batch t "predict" xs;
  let k = Linalg.Mat.rows xs in
  let means = Array.make k 0. in
  predict_into t ~scratch:(Scratch.create ~capacity:k t) xs ~means;
  means

let predict_with_std t xs =
  check_batch t "predict_with_std" xs;
  let k = Linalg.Mat.rows xs in
  let means = Array.make k 0. and stds = Array.make k 0. in
  let scratch = Scratch.create ~capacity:k t in
  observed "predict_with_std" ~batch:k ~with_std:true (fun () ->
      let gq = means_into t scratch xs means in
      (* Per-query variances are independent K x K solves against the
         stored factor; shard the query range across lanes with one
         scratch each. Every lane writes its own slice of [stds], so the
         output is bit-identical at any -j. *)
      Parallel.Pool.parallel_chunks ~grain:16 ~n:k (fun ~lo ~hi ->
          variances_into t (Scratch.create ~capacity:1 t) gq ~lo ~hi stds));
  (means, stds)

let point x = Linalg.Mat.of_flat ~rows:1 ~cols:(Array.length x) x

let predict_point_with_std t x =
  let means, stds = predict_with_std t (point x) in
  (means.(0), stds.(0))
