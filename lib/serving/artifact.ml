type meta = { circuit : string; metric : string; scale : string; seed : int }

type t = {
  meta : meta;
  rev : int;
  hyper : float;
  cv_error : float;
  sigma0_sq : float;
  basis_dim : int;
  terms : Polybasis.Multi_index.t array;
  prior : Bmf.Prior.t;
  coeffs : Linalg.Vec.t;
  g : Linalg.Mat.t;
  f : Linalg.Vec.t;
  chol : Linalg.Mat.t;
}

type format = Binary

let num_samples a = Linalg.Mat.rows a.g

let num_terms a = Array.length a.coeffs

let basis a = Polybasis.Basis.of_terms ~dim:a.basis_dim (Array.to_list a.terms)

let method_name a = Bmf.Prior.kind_name a.prior.Bmf.Prior.kind

(* ------------------------------------------------------------------ *)
(* Checksums: FNV-1a 64-bit ({!Codec.fnv64}). *)

let checksum_hex s = Printf.sprintf "%016Lx" (Codec.fnv64 s 0 (String.length s))

(* The hash of the floats' bytes, after [put_floats]'s 8-byte count. *)
let fingerprint values =
  let w = Codec.writer (8 + (8 * Array.length values)) in
  Codec.put_floats w values;
  Printf.sprintf "%016Lx" (Codec.fnv64_from w 8)

(* ------------------------------------------------------------------ *)
(* Capture a fit. The MAP solve is Map_solver's fast path, so the stored
   coefficients are what [Map_solver.solve ~solver:Fast_woodbury]
   returns — and the K x K Cholesky factor of [hyper I + G W^-1 G^T] it
   hands back is kept: it is the posterior core reused by the predictor
   (predictive variance) and the incremental updater (rank-1
   extension). *)

let of_fit ~meta ?(rev = 0) ~basis ~prior ~hyper ?(cv_error = nan) ~g ~f () =
  let k, m = Linalg.Mat.dims g in
  if Polybasis.Basis.size basis <> m then
    invalid_arg "Artifact.of_fit: basis size mismatch";
  if Bmf.Prior.size prior <> m then
    invalid_arg "Artifact.of_fit: prior size mismatch";
  if Array.length f <> k then
    invalid_arg "Artifact.of_fit: sample count mismatch";
  if hyper <= 0. || not (Float.is_finite hyper) then
    invalid_arg "Artifact.of_fit: hyper must be positive and finite";
  let coeffs, fact =
    Bmf.Map_solver.solve_fast ~g ~f ~weights:prior.Bmf.Prior.weights
      ~means:prior.Bmf.Prior.means ~hyper
  in
  {
    meta;
    rev;
    hyper;
    cv_error;
    sigma0_sq = Bmf.Map_solver.noise_estimate ~g ~f coeffs;
    basis_dim = Polybasis.Basis.dim basis;
    terms = Polybasis.Basis.terms basis;
    prior;
    coeffs;
    g = Linalg.Mat.copy g;
    f = Linalg.Vec.copy f;
    chol = Linalg.Cholesky.factor fact;
  }

(* ------------------------------------------------------------------ *)
(* Structural validation after decoding, so an inconsistent payload is
   rejected with a message instead of failing deep inside a solve.
   Returns the artifact it checked. *)
let validate a =
  let k, m = Linalg.Mat.dims a.g in
  let check cond msg = if cond then Ok () else Error ("artifact: " ^ msg) in
  let ( let* ) = Result.bind in
  let* () = check (Array.length a.coeffs = m) "coeffs length mismatch" in
  let* () = check (Array.length a.f = k) "responses length mismatch" in
  let* () = check (Bmf.Prior.size a.prior = m) "prior size mismatch" in
  let* () = check (Array.length a.terms = m) "term count mismatch" in
  let* () = check (Linalg.Mat.rows a.chol = k) "chol dimension mismatch" in
  let* () =
    check
      (Array.for_all
         (fun t -> Polybasis.Multi_index.max_variable t < a.basis_dim)
         a.terms)
      "term references variable outside basis"
  in
  let* () =
    check
      (a.hyper > 0. && Float.is_finite a.hyper)
      "hyper must be positive and finite"
  in
  let* () = check (a.sigma0_sq > 0.) "sigma0_sq must be positive" in
  Ok a

(* ------------------------------------------------------------------ *)
(* Binary codec: a fixed-order layout in {!Codec}'s envelope,

     magic "BMFART01" | u64 fnv64 checksum of payload | payload

   with ints as i64, floats as IEEE bits, strings and arrays
   length-prefixed, and the design matrix as [k | k * m | floats]. *)

let magic = "BMFART01"

(* The model key, in the order every binary format stores it. *)
let write_meta w m =
  Codec.put_string w m.circuit;
  Codec.put_string w m.metric;
  Codec.put_string w m.scale;
  Codec.put_int w m.seed

let read_meta rd =
  let circuit = Codec.get_string rd in
  let metric = Codec.get_string rd in
  let scale = Codec.get_string rd in
  let seed = Codec.get_int rd in
  { circuit; metric; scale; seed }

let write_payload w a =
  write_meta w a.meta;
  Codec.put_int w a.rev;
  Codec.put_float w a.hyper;
  Codec.put_float w a.cv_error;
  Codec.put_float w a.sigma0_sq;
  Codec.put_int w a.basis_dim;
  Codec.put_int w (Array.length a.terms);
  for t = 0 to Array.length a.terms - 1 do
    let term = a.terms.(t) in
    Codec.put_int w (Array.length term);
    for p = 0 to Array.length term - 1 do
      let v, d = term.(p) in
      Codec.put_int w v;
      Codec.put_int w d
    done
  done;
  Codec.put_int w
    (match a.prior.Bmf.Prior.kind with
    | Bmf.Prior.Zero_mean -> 0
    | Bmf.Prior.Nonzero_mean -> 1);
  Codec.put_floats w a.prior.Bmf.Prior.means;
  Codec.put_floats w a.prior.Bmf.Prior.weights;
  Codec.put_int w (Array.length a.prior.Bmf.Prior.informed);
  Array.iter (Codec.put_bool w) a.prior.Bmf.Prior.informed;
  Codec.put_floats w a.coeffs;
  let k, m = Linalg.Mat.dims a.g in
  Codec.put_int w k;
  Codec.put_int w (k * m);
  Codec.put_mat w a.g;
  Codec.put_floats w a.f;
  Codec.put_int w (k * (k + 1) / 2);
  Codec.put_lower w a.chol

(* Room for the floats and the terms' pairs; the writer grows if the
   strings need more. *)
let to_string Binary a =
  let k, m = Linalg.Mat.dims a.g in
  let size = 512 + (8 * ((k * (m + 1)) + (k * (k + 1) / 2) + (4 * m))) in
  Codec.sealed ~magic
    ~size:(Array.fold_left (fun n t -> n + 8 + (16 * Array.length t)) size a.terms)
    (fun w -> write_payload w a)

let read_payload rd =
  let meta = read_meta rd in
  let rev = Codec.get_int rd in
  let hyper = Codec.get_float rd in
  let cv_error = Codec.get_float rd in
  let sigma0_sq = Codec.get_float rd in
  let basis_dim = Codec.get_int rd in
  let n_terms = Codec.get_count rd ~per:8 "implausible terms length" in
  let terms =
    Array.init n_terms (fun _ ->
        let n_pairs = Codec.get_count rd ~per:16 "implausible term length" in
        let pairs = Array.make n_pairs (0, 0) in
        for p = 0 to n_pairs - 1 do
          let v = Codec.get_int rd in
          let d = Codec.get_int rd in
          pairs.(p) <- (v, d)
        done;
        Polybasis.Multi_index.of_pairs pairs)
  in
  let kind =
    match Codec.get_int rd with
    | 0 -> Bmf.Prior.Zero_mean
    | 1 -> Bmf.Prior.Nonzero_mean
    | n -> raise (Codec.Short (Printf.sprintf "bad prior kind %d" n))
  in
  let means = Codec.get_floats rd "means" in
  let weights = Codec.get_floats rd "weights" in
  let n_informed = Codec.get_count rd ~per:1 "implausible informed length" in
  let informed = Array.init n_informed (fun _ -> Codec.get_bool rd) in
  let prior = Bmf.Prior.of_raw ~kind ~means ~weights ~informed in
  let coeffs = Codec.get_floats rd "coeffs" in
  let m = Array.length coeffs in
  let k = Codec.get_int rd in
  let n = Codec.get_count rd ~per:8 "implausible g length" in
  if k < 0 || n <> k * m then raise (Codec.Short "design matrix size mismatch");
  let g = Codec.get_mat rd "g" k m in
  let f = Codec.get_floats rd "f" in
  let n = Codec.get_count rd ~per:8 "implausible chol length" in
  if n <> k * (k + 1) / 2 then raise (Codec.Short "chol: packed length mismatch");
  let chol = Codec.get_lower rd k in
  validate
    { meta; rev; hyper; cv_error; sigma0_sq; basis_dim; terms; prior; coeffs;
      g; f; chol }

let of_string s =
  match Codec.unsealed ~magic ~eof:"truncated payload" s read_payload with
  | Ok checked -> checked
  | Error e | (exception Invalid_argument e) -> Error ("artifact: " ^ e)

