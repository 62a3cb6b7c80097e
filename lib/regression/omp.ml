type stop =
  | Max_terms of int
  | Residual of float
  | Cross_validation of { folds : int; max_terms : int }

type result = {
  coeffs : Linalg.Vec.t;
  support : int array;
  residual_norm : float;
  iterations : int;
}

(* Greedy selection state: [cols] stores the chosen columns of g
   contiguously (k x smax), [l] is the lower-triangular Cholesky factor
   of the support Gram matrix, grown by one bordering row per step and
   solved through [Linalg.Cholesky.forward]/[backward]. *)
type state = {
  k : int;
  smax : int;
  cols : float array; (* column-major: cols.(j * k + i) *)
  l : Linalg.Mat.t; (* smax x smax, lower triangle live in the s x s block *)
  gtf : float array; (* g_support^T f, length smax *)
  support : int array;
  mutable s : int;
}

let make_state k smax =
  {
    k;
    smax;
    cols = Array.make (k * smax) 0.;
    l = Linalg.Mat.create smax smax;
    gtf = Array.make smax 0.;
    support = Array.make smax (-1);
    s = 0;
  }

(* Append column [col] (with g^T f entry [gf]) to the support; returns
   false when the column is numerically dependent on the support. *)
let push st col gf idx =
  let s = st.s and k = st.k in
  assert (s < st.smax);
  (* w = cols^T col, then solve L v = w in place *)
  let v = Array.make s 0. in
  for j = 0 to s - 1 do
    let acc = ref 0. in
    let base = j * k in
    for i = 0 to k - 1 do
      acc := !acc +. (Array.unsafe_get st.cols (base + i) *. Array.unsafe_get col i)
    done;
    v.(j) <- !acc
  done;
  Linalg.Cholesky.forward st.l ~n:s v ~dst:v;
  let col_norm2 = Linalg.Vec.dot col col in
  let d2 = col_norm2 -. Linalg.Vec.dot v v in
  if d2 <= 1e-12 *. Float.max 1. col_norm2 then false
  else begin
    Array.blit col 0 st.cols (s * k) k;
    Linalg.Mat.set_row_prefix st.l s v s;
    Linalg.Mat.set st.l s s (sqrt d2);
    st.gtf.(s) <- gf;
    st.support.(s) <- idx;
    st.s <- s + 1;
    true
  end

(* Solve L L^T alpha = g_support^T f for the current support. *)
let solve_support st =
  let s = st.s in
  let alpha = Array.sub st.gtf 0 s in
  Linalg.Cholesky.forward st.l ~n:s alpha ~dst:alpha;
  Linalg.Cholesky.backward st.l ~n:s alpha ~dst:alpha;
  alpha

(* Residual f - g_support alpha. *)
let residual st f alpha =
  let r = Array.copy f in
  for j = 0 to st.s - 1 do
    let a = alpha.(j) in
    if a <> 0. then begin
      let base = j * st.k in
      for i = 0 to st.k - 1 do
        Array.unsafe_set r i
          (Array.unsafe_get r i -. (a *. Array.unsafe_get st.cols (base + i)))
      done
    end
  done;
  r

(* One full greedy run on (g, f) up to [max_terms] or residual tolerance.
   [observe] is called after each step with the state and current alpha,
   letting cross-validation record per-step test errors without refits. *)
let run ~g ~f ~max_terms ~res_tol ~observe =
  let k, m = Linalg.Mat.dims g in
  if Array.length f <> k then invalid_arg "Omp: sample count mismatch";
  let max_terms = Stdlib.min max_terms (Stdlib.min k m) in
  let st = make_state k max_terms in
  let fnorm = Float.max 1e-300 (Linalg.Vec.nrm2 f) in
  (* cached column norms for correlation normalization: each column's
     squares summed from row 0 down, one row-major pass *)
  let col_norms =
    let sq = Array.make m 0. and row = Array.make m 0. in
    for i = 0 to k - 1 do
      Linalg.Mat.row_into g i row;
      for j = 0 to m - 1 do
        sq.(j) <- sq.(j) +. (row.(j) *. row.(j))
      done
    done;
    Array.map (fun s -> Float.max 1e-300 (sqrt s)) sq
  in
  let in_support = Array.make m false in
  let r = ref (Array.copy f) in
  let alpha = ref [||] in
  let stop = ref false in
  while (not !stop) && st.s < max_terms do
    if Linalg.Vec.nrm2 !r <= res_tol *. fnorm then stop := true
    else begin
      (* c = g^T r, normalized by column norms; pick the best new index *)
      let c = Linalg.Mat.gemv_t g !r in
      let best = ref (-1) and best_v = ref 0. in
      for j = 0 to m - 1 do
        if not in_support.(j) then begin
          let v = Float.abs c.(j) /. col_norms.(j) in
          if v > !best_v then begin
            best := j;
            best_v := v
          end
        end
      done;
      if !best < 0 || !best_v <= 1e-14 *. fnorm then stop := true
      else begin
        let col = Linalg.Mat.col g !best in
        let gf = Linalg.Vec.dot col f in
        if push st col gf !best then begin
          in_support.(!best) <- true;
          alpha := solve_support st;
          r := residual st f !alpha;
          observe st !alpha
        end
        else
          (* numerically dependent column: exclude it and continue *)
          in_support.(!best) <- true
      end
    end
  done;
  (st, !alpha, Linalg.Vec.nrm2 !r)

let densify ~m st alpha =
  let coeffs = Array.make m 0. in
  for j = 0 to st.s - 1 do
    coeffs.(st.support.(j)) <- alpha.(j)
  done;
  coeffs

let fit_fixed ~g ~f ~max_terms ~res_tol =
  let _, m = Linalg.Mat.dims g in
  let st, alpha, rnorm =
    run ~g ~f ~max_terms ~res_tol ~observe:(fun _ _ -> ())
  in
  {
    coeffs = densify ~m st alpha;
    support = Array.sub st.support 0 st.s;
    residual_norm = rnorm;
    iterations = st.s;
  }

(* Cross-validated choice of the number of terms: each fold runs the
   greedy path once, recording held-out error after every step. *)
let fit_cv ?rng ~g ~f ~folds ~max_terms () =
  let k, _ = Linalg.Mat.dims g in
  let folds = Stdlib.max 2 (Stdlib.min folds k) in
  let fold_list = Stats.Crossval.folds ?shuffle:rng ~n:folds ~size:k () in
  let limit = Stdlib.min max_terms (k - (k / folds) - 1) in
  let limit = Stdlib.max 1 limit in
  let err_sum = Array.make (limit + 1) 0. in
  let err_count = Array.make (limit + 1) 0 in
  List.iter
    (fun { Stats.Crossval.train; test } ->
      let gt = Linalg.Mat.gather_rows g train
      and ft = Linalg.Vec.gather f train in
      (* held-out columns are rows of the transpose *)
      let gvt = Linalg.Mat.transpose (Linalg.Mat.gather_rows g test)
      and fv = Linalg.Vec.gather f test in
      let fvnorm = Float.max 1e-300 (Linalg.Vec.nrm2 fv) in
      let col = Array.make (Array.length test) 0. in
      let observe st alpha =
        let s = st.s in
        if s <= limit then begin
          (* held-out predictions from the sparse support, summed in
             selection order *)
          let pred = Array.make (Array.length test) 0. in
          for j = 0 to s - 1 do
            Linalg.Mat.row_into gvt st.support.(j) col;
            Linalg.Vec.axpy alpha.(j) col pred
          done;
          err_sum.(s) <- err_sum.(s) +. (Linalg.Vec.dist2 pred fv /. fvnorm);
          err_count.(s) <- err_count.(s) + 1
        end
      in
      ignore (run ~g:gt ~f:ft ~max_terms:limit ~res_tol:0. ~observe))
    fold_list;
  let best_s = ref 1 and best_e = ref infinity in
  for s = 1 to limit do
    if err_count.(s) > 0 then begin
      let e = err_sum.(s) /. float_of_int err_count.(s) in
      if e < !best_e then begin
        best_e := e;
        best_s := s
      end
    end
  done;
  fit_fixed ~g ~f ~max_terms:!best_s ~res_tol:0.

let fit_design ?rng ~g ~f stop =
  match stop with
  | Max_terms n ->
      if n <= 0 then invalid_arg "Omp: Max_terms must be positive";
      fit_fixed ~g ~f ~max_terms:n ~res_tol:0.
  | Residual tol ->
      if tol < 0. then invalid_arg "Omp: Residual tolerance must be >= 0";
      let k = Linalg.Mat.rows g in
      fit_fixed ~g ~f ~max_terms:(Stdlib.max 1 (k - 1)) ~res_tol:tol
  | Cross_validation { folds; max_terms } ->
      if folds < 2 then invalid_arg "Omp: need at least 2 folds";
      if max_terms <= 0 then invalid_arg "Omp: max_terms must be positive";
      fit_cv ?rng ~g ~f ~folds ~max_terms ()

let fit ?rng ~basis ~xs ~f stop =
  let g = Polybasis.Basis.design_matrix basis xs in
  let result = fit_design ?rng ~g ~f stop in
  Model.create basis result.coeffs
