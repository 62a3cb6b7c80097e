let fit_design ~lambda ~g ~f =
  if lambda <= 0. then invalid_arg "Ridge.fit_design: lambda must be > 0";
  let k, m = Linalg.Mat.dims g in
  if Array.length f <> k then invalid_arg "Ridge.fit_design: length mismatch";
  if k >= m then begin
    (* normal equations, m x m *)
    let gram = Linalg.Mat.gram g in
    let shifted = Linalg.Mat.add_diag gram (Array.make m lambda) in
    Linalg.Cholesky.solve_system shifted (Linalg.Mat.gemv_t g f)
  end
  else
    (* the dual solve with W = I and mu = 0:
       alpha = G^T (lambda I + G G^T)^-1 f, a k x k factorization *)
    fst
      (Linalg.Woodbury.solve ~g ~w_inv:(Array.make m 1.)
         ~means:(Array.make m 0.) ~core:(Linalg.Mat.outer_gram g) ~r:f
         ~hyper:lambda)

let fit ~lambda ~basis ~xs ~f =
  let g = Polybasis.Basis.design_matrix basis xs in
  Model.create basis (fit_design ~lambda ~g ~f)

let default_lambdas =
  [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100.; 1000. ]

let fit_cv ?rng ?(lambdas = default_lambdas) ?(folds = 5) ~g ~f () =
  let k = Linalg.Mat.rows g in
  let folds = Stdlib.max 2 (Stdlib.min folds k) in
  let run lambda ~train ~test =
    let gt = Linalg.Mat.gather_rows g train
    and ft = Linalg.Vec.gather f train in
    let gv = Linalg.Mat.gather_rows g test
    and fv = Linalg.Vec.gather f test in
    let alpha = fit_design ~lambda ~g:gt ~f:ft in
    Linalg.Vec.rel_error (Linalg.Mat.gemv gv alpha) fv
  in
  let best, _ =
    Stats.Crossval.select ?shuffle:rng ~n:folds ~size:k ~candidates:lambdas
      run
  in
  (fit_design ~lambda:best ~g ~f, best)
