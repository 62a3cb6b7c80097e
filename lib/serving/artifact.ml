let format_version = 1

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

type format = Json | Binary

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
  let resid = Linalg.Vec.sub f (Linalg.Mat.gemv g coeffs) in
  let sigma0_sq =
    Float.max 1e-300
      (Linalg.Vec.dot resid resid /. float_of_int (Stdlib.max 1 k))
  in
  {
    meta;
    rev;
    hyper;
    cv_error;
    sigma0_sq;
    basis_dim = Polybasis.Basis.dim basis;
    terms = Polybasis.Basis.terms basis;
    prior;
    coeffs;
    g = Linalg.Mat.copy g;
    f = Linalg.Vec.copy f;
    chol = Linalg.Cholesky.factor fact;
  }

(* ------------------------------------------------------------------ *)
(* Shared (de)serialization helpers. *)

let kind_to_string = function
  | Bmf.Prior.Zero_mean -> "zero-mean"
  | Bmf.Prior.Nonzero_mean -> "nonzero-mean"

let kind_of_string = function
  | "zero-mean" -> Ok Bmf.Prior.Zero_mean
  | "nonzero-mean" -> Ok Bmf.Prior.Nonzero_mean
  | s -> Error (Printf.sprintf "unknown prior kind %S" s)

(* Structural validation shared by both decoders, so a truncated or
   inconsistent payload is rejected with a message instead of failing
   deep inside a solve. Returns the artifact it checked. *)
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
(* JSON codec. *)

let float_arr values = Json.Arr (Array.to_list (Array.map Json.of_float values))

let payload_to_json a =
  let k = num_samples a in
  Json.Obj
    [
      ( "meta",
        Json.Obj
          [
            ("circuit", Json.Str a.meta.circuit);
            ("metric", Json.Str a.meta.metric);
            ("scale", Json.Str a.meta.scale);
            ("seed", Json.Num (float_of_int a.meta.seed));
          ] );
      ("rev", Json.Num (float_of_int a.rev));
      ("hyper", Json.of_float a.hyper);
      ("cv_error", Json.of_float a.cv_error);
      ("sigma0_sq", Json.of_float a.sigma0_sq);
      ( "basis",
        Json.Obj
          [
            ("dim", Json.Num (float_of_int a.basis_dim));
            ( "terms",
              Json.Arr
                (Array.to_list
                   (Array.map
                      (fun term ->
                        Json.Arr
                          (Array.to_list
                             (Array.map
                                (fun (v, d) ->
                                  Json.Arr
                                    [
                                      Json.Num (float_of_int v);
                                      Json.Num (float_of_int d);
                                    ])
                                term)))
                      a.terms)) );
          ] );
      ( "prior",
        Json.Obj
          [
            ("kind", Json.Str (kind_to_string a.prior.Bmf.Prior.kind));
            ("means", float_arr a.prior.Bmf.Prior.means);
            ("weights", float_arr a.prior.Bmf.Prior.weights);
            ( "informed",
              Json.Arr
                (Array.to_list
                   (Array.map (fun b -> Json.Bool b) a.prior.Bmf.Prior.informed))
            );
          ] );
      ("coeffs", float_arr a.coeffs);
      ("samples", Json.Num (float_of_int k));
      ("g", float_arr (Linalg.Mat.to_flat a.g));
      ("f", float_arr a.f);
      ( "chol",
        (* the lower triangle, packed row by row *)
        Json.Arr
          (List.concat
             (List.init (Linalg.Mat.rows a.chol) (fun i ->
                  List.init (i + 1) (fun j ->
                      Json.of_float (Linalg.Mat.get a.chol i j))))) );
    ]

let to_json_string a =
  let payload = Json.to_string (payload_to_json a) in
  let buf = Buffer.create (String.length payload + 128) in
  Buffer.add_string buf "{\"format\":\"bmf-model-artifact\",\"version\":";
  Buffer.add_string buf (string_of_int format_version);
  Buffer.add_string buf ",\"checksum\":\"";
  Buffer.add_string buf (checksum_hex payload);
  Buffer.add_string buf "\",\"payload\":";
  Buffer.add_string buf payload;
  Buffer.add_string buf "}";
  Buffer.contents buf

let ( let* ) = Result.bind

let need what = function Some v -> Ok v | None -> Error ("artifact: " ^ what)

let json_floats what value =
  let* items = need (what ^ " missing") (Json.to_arr value) in
  let arr = Array.make (List.length items) 0. in
  let rec fill i = function
    | [] -> Ok arr
    | item :: rest -> (
        match Json.to_float item with
        | Some f ->
            arr.(i) <- f;
            fill (i + 1) rest
        | None -> Error ("artifact: bad float in " ^ what))
  in
  fill 0 items

let of_json_value doc =
  let* version = need "version missing" (Option.bind (Json.member "version" doc) Json.to_int) in
  let* () =
    if version = format_version then Ok ()
    else Error (Printf.sprintf "artifact: unsupported version %d" version)
  in
  let* stored = need "checksum missing" (Option.bind (Json.member "checksum" doc) Json.to_str) in
  let* payload = need "payload missing" (Json.member "payload" doc) in
  let canonical = Json.to_string payload in
  let* () =
    if String.equal (checksum_hex canonical) stored then Ok ()
    else Error "artifact: checksum mismatch (corrupt file)"
  in
  let field name = Json.member name payload in
  let* meta_obj = need "meta missing" (field "meta") in
  let mfield name conv = need ("meta." ^ name) (Option.bind (Json.member name meta_obj) conv) in
  let* circuit = mfield "circuit" Json.to_str in
  let* metric = mfield "metric" Json.to_str in
  let* scale = mfield "scale" Json.to_str in
  let* seed = mfield "seed" Json.to_int in
  let* rev = need "rev" (Option.bind (field "rev") Json.to_int) in
  let ffield name = need name (Option.bind (field name) Json.to_float) in
  let* hyper = ffield "hyper" in
  let* cv_error = ffield "cv_error" in
  let* sigma0_sq = ffield "sigma0_sq" in
  let* basis_obj = need "basis missing" (field "basis") in
  let* basis_dim = need "basis.dim" (Option.bind (Json.member "dim" basis_obj) Json.to_int) in
  let* term_items = need "basis.terms" (Option.bind (Json.member "terms" basis_obj) Json.to_arr) in
  let* terms =
    let decode_pair = function
      | Json.Arr [ v; d ] -> (
          match (Json.to_int v, Json.to_int d) with
          | Some v, Some d -> Ok (v, d)
          | _ -> Error "artifact: bad term pair")
      | _ -> Error "artifact: bad term pair"
    in
    let decode_term item =
      let* pairs = need "bad term" (Json.to_arr item) in
      List.fold_left
        (fun acc pair ->
          let* acc = acc in
          let* p = decode_pair pair in
          Ok (p :: acc))
        (Ok []) pairs
      |> Result.map (fun ps -> Polybasis.Multi_index.of_pairs (List.rev ps))
    in
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* t = decode_term item in
        Ok (t :: acc))
      (Ok []) term_items
    |> Result.map (fun ts -> Array.of_list (List.rev ts))
  in
  let* prior_obj = need "prior missing" (field "prior") in
  let* kind_str = need "prior.kind" (Option.bind (Json.member "kind" prior_obj) Json.to_str) in
  let* kind = kind_of_string kind_str in
  let* means = json_floats "prior.means" (Option.value ~default:Json.Null (Json.member "means" prior_obj)) in
  let* weights = json_floats "prior.weights" (Option.value ~default:Json.Null (Json.member "weights" prior_obj)) in
  let* informed =
    let* items = need "prior.informed" (Option.bind (Json.member "informed" prior_obj) Json.to_arr) in
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Json.Bool b -> Ok (b :: acc)
        | _ -> Error "artifact: bad prior.informed entry")
      (Ok []) items
    |> Result.map (fun bs -> Array.of_list (List.rev bs))
  in
  let* prior =
    try Ok (Bmf.Prior.of_raw ~kind ~means ~weights ~informed)
    with Invalid_argument msg -> Error ("artifact: " ^ msg)
  in
  let* coeffs = json_floats "coeffs" (Option.value ~default:Json.Null (field "coeffs")) in
  let* k = need "samples" (Option.bind (field "samples") Json.to_int) in
  let* g_flat = json_floats "g" (Option.value ~default:Json.Null (field "g")) in
  let* f = json_floats "f" (Option.value ~default:Json.Null (field "f")) in
  let* chol_flat = json_floats "chol" (Option.value ~default:Json.Null (field "chol")) in
  let m = Array.length coeffs in
  let* () =
    if k >= 0 && Array.length g_flat = k * m then Ok ()
    else Error "artifact: design matrix size mismatch"
  in
  let g = Linalg.Mat.of_flat ~rows:k ~cols:m g_flat in
  let* () =
    if Array.length chol_flat = k * (k + 1) / 2 then Ok ()
    else Error "chol: packed length mismatch"
  in
  (* row i of the packed lower triangle starts at i (i + 1) / 2 *)
  let chol =
    Linalg.Mat.init k k (fun i j ->
        if j <= i then chol_flat.((i * (i + 1) / 2) + j) else 0.)
  in
  validate
    {
      meta = { circuit; metric; scale; seed };
      rev;
      hyper;
      cv_error;
      sigma0_sq;
      basis_dim;
      terms;
      prior;
      coeffs;
      g;
      f;
      chol;
    }

let of_json_string s =
  let* doc = Result.map_error (fun e -> "artifact: bad JSON: " ^ e) (Json.of_string s) in
  of_json_value doc

(* ------------------------------------------------------------------ *)
(* Binary codec: a fixed-order layout in {!Codec}'s envelope,

     magic "BMFART01" | u64 fnv64 checksum of payload | payload

   with ints as i64, floats as IEEE bits, strings and arrays
   length-prefixed, and the design matrix as [k | k * m | floats].
   Roughly 8 bytes per number versus ~20 for JSON. *)

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
let to_binary_string a =
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
        Polybasis.Multi_index.of_pairs
          (List.init n_pairs (fun _ ->
               let v = Codec.get_int rd in
               let d = Codec.get_int rd in
               (v, d))))
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

let of_binary_string s =
  match Codec.unsealed ~magic ~eof:"truncated payload" s read_payload with
  | Ok checked -> checked
  | Error e | (exception Invalid_argument e) -> Error ("artifact: " ^ e)

(* ------------------------------------------------------------------ *)

let to_string format a =
  match format with Json -> to_json_string a | Binary -> to_binary_string a

let of_string s =
  if String.starts_with ~prefix:magic s then of_binary_string s
  else of_json_string s
