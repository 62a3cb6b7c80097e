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
    row : Linalg.Vec.t; (* length M: one design row *)
    h : Linalg.Vec.t; (* length M: W^-1 g0 *)
    u : Linalg.Vec.t; (* length K: G h *)
    y : Linalg.Vec.t; (* length K: forward-solve intermediate *)
    v : Linalg.Vec.t; (* length K: C^-1 u *)
    acc : Linalg.Vec.t; (* 1 cell: unboxed dot accumulator *)
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
      row = Linalg.Vec.create m;
      h = Linalg.Vec.create m;
      u = Linalg.Vec.create k_core;
      y = Linalg.Vec.create k_core;
      v = Linalg.Vec.create k_core;
      acc = Linalg.Vec.create 1;
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

(* Dot product through the scratch accumulator cell: float-array
   traffic stays unboxed under vanilla ocamlopt, where both a [ref]
   accumulator and [Vec.dot]'s boxed float return would allocate.
   Summation order is [Vec.dot]'s. *)
let dot_acc (s : Scratch.t) (x : Linalg.Vec.t) (y : Linalg.Vec.t) n =
  let acc = s.Scratch.acc in
  Array.unsafe_set acc 0 0.;
  for i = 0 to n - 1 do
    Array.unsafe_set acc 0
      (Array.unsafe_get acc 0
      +. (Array.unsafe_get x i *. Array.unsafe_get y i))
  done

(* Predictive variance from the stored posterior core, in the dual form
   that never touches the M x M covariance:

     Sigma = sigma0^2 (G^T G + hyper W)^-1
           = (sigma0^2 / hyper) [W^-1 - W^-1 G^T C^-1 G W^-1]

   with C = hyper I + G W^-1 G^T, whose Cholesky factor the artifact
   stores. Per query row g0 of [gq]: h = W^-1 g0, u = G h, then
   var = sigma0^2/hyper (g0.h - u^T C^-1 u) + sigma0^2, at
   O(KM + K^2) instead of O(M^2) — exactly [Posterior.predict] in exact
   arithmetic. Writes [sqrt var] straight into [stds.(i)] through the
   scratch buffers, with zero per-query allocation.
   [if var > 0. then var else ...] is [Float.max 0. var] spelled
   without the function call (bit-identical for negative zero and
   NaN). *)
let variance_into t (s : Scratch.t) gq i (stds : Linalg.Vec.t) =
  Linalg.Mat.row_into gq i s.Scratch.row;
  Linalg.Vec.mul_into t.w_inv s.Scratch.row s.Scratch.h;
  let m = Array.length s.Scratch.row in
  let k_core = Array.length s.Scratch.u in
  dot_acc s s.Scratch.row s.Scratch.h m;
  let q = Array.unsafe_get s.Scratch.acc 0 in
  Linalg.Mat.gemv_into t.g s.Scratch.h s.Scratch.u;
  Linalg.Cholesky.solve_into t.chol s.Scratch.u ~y:s.Scratch.y
    ~dst:s.Scratch.v;
  dot_acc s s.Scratch.u s.Scratch.v k_core;
  let var =
    t.sigma0_sq /. t.hyper
    *. (q -. Array.unsafe_get s.Scratch.acc 0)
    +. t.sigma0_sq
  in
  Array.unsafe_set stds i
    (sqrt (if var > 0. then var else if var <> var then var else 0.))

let predict_with_std_into t ~scratch xs ~means ~stds =
  check_batch t "predict_with_std_into" xs;
  check_scratch t "predict_with_std_into" scratch;
  let k = Linalg.Mat.rows xs in
  check_dst t "predict_with_std_into" "means" means k;
  check_dst t "predict_with_std_into" "stds" stds k;
  observed "predict_with_std_into" ~batch:k ~with_std:true @@ fun () ->
  let gq = means_into t scratch xs means in
  (* Sequential per-query variances: the daemon already shards queries
     across worker domains, so the serving plane keeps its parallelism
     while each domain's loop stays allocation-free. *)
  for i = 0 to k - 1 do
    variance_into t scratch gq i stds
  done

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
          let lane = Scratch.create ~capacity:1 t in
          for i = lo to hi - 1 do
            variance_into t lane gq i stds
          done));
  (means, stds)

let point x = Linalg.Mat.of_flat ~rows:1 ~cols:(Array.length x) x

let predict_point t x = (predict t (point x)).(0)

let predict_point_with_std t x =
  let means, stds = predict_with_std t (point x) in
  (means.(0), stds.(0))
