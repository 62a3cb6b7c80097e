type t = {
  mean : Linalg.Vec.t;
  covariance : Linalg.Mat.t;
  sigma0_sq : float;
}

let compute ?sigma0_sq ~g ~f ~prior ~hyper () =
  let m = Linalg.Mat.cols g in
  if Prior.size prior <> m then invalid_arg "Posterior.compute: prior mismatch";
  let mean =
    Map_solver.solve ~solver:Map_solver.Direct_cholesky ~g ~f ~prior ~hyper ()
  in
  let sigma0_sq =
    match sigma0_sq with
    | Some s ->
        if s <= 0. then invalid_arg "Posterior.compute: sigma0_sq <= 0";
        s
    | None -> Map_solver.noise_estimate ~g ~f mean
  in
  let gram = Linalg.Mat.gram g in
  let shifted =
    Linalg.Mat.add_diag gram
      (Array.map (fun w -> hyper *. w) prior.Prior.weights)
  in
  let inv = Linalg.Cholesky.inverse (Linalg.Cholesky.factorize shifted) in
  { mean; covariance = Linalg.Mat.scale sigma0_sq inv; sigma0_sq }

let marginal_std p = Array.map sqrt (Linalg.Mat.diag p.covariance)

let credible_interval p ~index ~level =
  if level <= 0. || level >= 1. then
    invalid_arg "Posterior.credible_interval: level outside (0, 1)";
  let std = sqrt (Linalg.Mat.get p.covariance index index) in
  let z = Stats.Special.norm_ppf (0.5 +. (level /. 2.)) in
  (p.mean.(index) -. (z *. std), p.mean.(index) +. (z *. std))

let sample rng p =
  let m = Array.length p.mean in
  (* covariance may be near-singular; regularize the factorization by a
     vanishing jitter if needed *)
  let rec factor jitter =
    try
      Linalg.Cholesky.factorize
        (if jitter = 0. then p.covariance
         else Linalg.Mat.add_diag p.covariance (Array.make m jitter))
    with Linalg.Cholesky.Not_positive_definite _ ->
      let next = if jitter = 0. then 1e-12 else jitter *. 100. in
      if next > 1. then raise (Linalg.Cholesky.Not_positive_definite 0)
      else factor next
  in
  let l = Linalg.Cholesky.factor (factor 0.) in
  let z = Stats.Rng.gaussian_vec rng m in
  let lz = Linalg.Mat.gemv l z in
  Linalg.Vec.add p.mean lz

let predict p g_row =
  let m = Array.length p.mean in
  if Array.length g_row <> m then invalid_arg "Posterior.predict: bad row";
  let mean = Linalg.Vec.dot g_row p.mean in
  let sv = Linalg.Mat.gemv p.covariance g_row in
  let var = Linalg.Vec.dot g_row sv +. p.sigma0_sq in
  (mean, sqrt (Float.max 0. var))
