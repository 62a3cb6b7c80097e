(* alpha = mu + W^-1 G^T v: the dual form's map from the K-dimensional
   solve back to coefficient space. *)
let dual_coeffs ~g ~w_inv ~means v =
  let gtv = Mat.gemv_t g v in
  Array.init (Array.length means) (fun i ->
      means.(i) +. (w_inv.(i) *. gtv.(i)))

let solve ~g ~w_inv ~means ~core ~r ~hyper =
  let k = Mat.rows g in
  let fact = Cholesky.factorize (Mat.add_diag core (Array.make k hyper)) in
  (dual_coeffs ~g ~w_inv ~means (Cholesky.solve fact r), fact)
