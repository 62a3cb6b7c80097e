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
(* Checksums: FNV-1a 64-bit over the serialized payload. *)

(* Row-major flat copy of a matrix (codec input; Mat storage is a
   Bigarray off the OCaml heap). *)
let mat_flat (m : Linalg.Mat.t) = Linalg.Mat.to_flat m

(* A loop, not [String.iter]: the closure would box the Int64
   accumulator on every byte, where the local ref stays unboxed. *)
let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let checksum_hex s = Printf.sprintf "%016Lx" (fnv64 s)

let fingerprint values =
  let buf = Buffer.create (8 * Array.length values) in
  Array.iter (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v)) values;
  checksum_hex (Buffer.contents buf)

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

let pack_chol chol =
  let k = Linalg.Mat.rows chol in
  let packed = Array.make (k * (k + 1) / 2) 0. in
  let idx = ref 0 in
  for i = 0 to k - 1 do
    for j = 0 to i do
      packed.(!idx) <- Linalg.Mat.get chol i j;
      incr idx
    done
  done;
  packed

let unpack_chol k packed =
  if Array.length packed <> k * (k + 1) / 2 then
    Error "chol: packed length mismatch"
  else begin
    let chol = Linalg.Mat.create k k in
    let idx = ref 0 in
    for i = 0 to k - 1 do
      for j = 0 to i do
        Linalg.Mat.set chol i j packed.(!idx);
        incr idx
      done
    done;
    Ok chol
  end

let kind_to_string = function
  | Bmf.Prior.Zero_mean -> "zero-mean"
  | Bmf.Prior.Nonzero_mean -> "nonzero-mean"

let kind_of_string = function
  | "zero-mean" -> Ok Bmf.Prior.Zero_mean
  | "nonzero-mean" -> Ok Bmf.Prior.Nonzero_mean
  | s -> Error (Printf.sprintf "unknown prior kind %S" s)

(* Structural validation shared by both decoders, so a truncated or
   inconsistent payload is rejected with a message instead of failing
   deep inside a solve. *)
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
  check (a.sigma0_sq > 0.) "sigma0_sq must be positive"

(* ------------------------------------------------------------------ *)
(* JSON codec. *)

let fnum f =
  if Float.is_finite f then Json.Num f
  else
    Json.Str
      (if Float.is_nan f then "nan" else if f > 0. then "inf" else "-inf")

let fnum_back = function
  | Json.Num f -> Some f
  | Json.Str "nan" -> Some Float.nan
  | Json.Str "inf" -> Some Float.infinity
  | Json.Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let float_arr values = Json.Arr (Array.to_list (Array.map fnum values))

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
      ("hyper", fnum a.hyper);
      ("cv_error", fnum a.cv_error);
      ("sigma0_sq", fnum a.sigma0_sq);
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
      ("g", float_arr (mat_flat a.g));
      ("f", float_arr a.f);
      ("chol", float_arr (pack_chol a.chol));
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
        match fnum_back item with
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
  let ffield name = need name (Option.bind (field name) fnum_back) in
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
  let g = Linalg.Mat.init k m (fun i j -> g_flat.((i * m) + j)) in
  let* chol = unpack_chol k chol_flat in
  let a =
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
  in
  let* () = validate a in
  Ok a

let of_json_string s =
  let* doc = Result.map_error (fun e -> "artifact: bad JSON: " ^ e) (Json.of_string s) in
  of_json_value doc

(* ------------------------------------------------------------------ *)
(* Binary codec: a fixed-order little-endian layout,

     magic "BMFART01" | u64 checksum of payload | payload

   with ints as i64, floats as IEEE bits, strings and arrays
   length-prefixed. Roughly 8 bytes per number versus ~20 for JSON. *)

let magic = "BMFART01"

let put_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let put_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_floats buf arr =
  put_int buf (Array.length arr);
  Array.iter (put_float buf) arr

let payload_to_binary a =
  let buf = Buffer.create (8 * (Array.length a.coeffs * (num_samples a + 4))) in
  put_string buf a.meta.circuit;
  put_string buf a.meta.metric;
  put_string buf a.meta.scale;
  put_int buf a.meta.seed;
  put_int buf a.rev;
  put_float buf a.hyper;
  put_float buf a.cv_error;
  put_float buf a.sigma0_sq;
  put_int buf a.basis_dim;
  put_int buf (Array.length a.terms);
  Array.iter
    (fun term ->
      put_int buf (Array.length term);
      Array.iter
        (fun (v, d) ->
          put_int buf v;
          put_int buf d)
        term)
    a.terms;
  put_int buf (match a.prior.Bmf.Prior.kind with Bmf.Prior.Zero_mean -> 0 | Bmf.Prior.Nonzero_mean -> 1);
  put_floats buf a.prior.Bmf.Prior.means;
  put_floats buf a.prior.Bmf.Prior.weights;
  put_int buf (Array.length a.prior.Bmf.Prior.informed);
  Array.iter
    (fun b -> Buffer.add_char buf (if b then '\001' else '\000'))
    a.prior.Bmf.Prior.informed;
  put_floats buf a.coeffs;
  put_int buf (num_samples a);
  put_floats buf (mat_flat a.g);
  put_floats buf a.f;
  put_floats buf (pack_chol a.chol);
  Buffer.contents buf

let to_binary_string a =
  let payload = payload_to_binary a in
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  Buffer.add_int64_le buf (fnv64 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

exception Short of string

type reader = { data : string; mutable at : int }

let take rd n =
  if rd.at + n > String.length rd.data then raise (Short "truncated payload");
  let at = rd.at in
  rd.at <- rd.at + n;
  at

let get_int rd = Int64.to_int (String.get_int64_le rd.data (take rd 8))

let get_float rd = Int64.float_of_bits (String.get_int64_le rd.data (take rd 8))

let get_string rd =
  let n = get_int rd in
  if n < 0 then raise (Short "negative length");
  String.sub rd.data (take rd n) n

let get_len rd what limit =
  let n = get_int rd in
  if n < 0 || n > limit then raise (Short ("implausible " ^ what ^ " length"));
  n

let get_floats rd what =
  let n = get_len rd what ((String.length rd.data - rd.at) / 8) in
  Array.init n (fun _ -> get_float rd)

let of_binary_string s =
  if String.length s < String.length magic + 8 then Error "artifact: truncated file"
  else if not (String.equal (String.sub s 0 (String.length magic)) magic) then
    Error "artifact: bad magic"
  else begin
    let stored = String.get_int64_le s (String.length magic) in
    let payload_at = String.length magic + 8 in
    let payload = String.sub s payload_at (String.length s - payload_at) in
    if not (Int64.equal (fnv64 payload) stored) then
      Error "artifact: checksum mismatch (corrupt file)"
    else
      try
        let rd = { data = payload; at = 0 } in
        let circuit = get_string rd in
        let metric = get_string rd in
        let scale = get_string rd in
        let seed = get_int rd in
        let rev = get_int rd in
        let hyper = get_float rd in
        let cv_error = get_float rd in
        let sigma0_sq = get_float rd in
        let basis_dim = get_int rd in
        let n_terms = get_len rd "terms" (String.length payload) in
        let terms =
          Array.init n_terms (fun _ ->
              let n_pairs = get_len rd "term" 4096 in
              Polybasis.Multi_index.of_pairs
                (List.init n_pairs (fun _ ->
                     let v = get_int rd in
                     let d = get_int rd in
                     (v, d))))
        in
        let kind =
          match get_int rd with
          | 0 -> Bmf.Prior.Zero_mean
          | 1 -> Bmf.Prior.Nonzero_mean
          | n -> raise (Short (Printf.sprintf "bad prior kind %d" n))
        in
        let means = get_floats rd "means" in
        let weights = get_floats rd "weights" in
        let n_informed = get_len rd "informed" (String.length payload) in
        let informed =
          Array.init n_informed (fun _ ->
              String.get payload (take rd 1) <> '\000')
        in
        let prior = Bmf.Prior.of_raw ~kind ~means ~weights ~informed in
        let coeffs = get_floats rd "coeffs" in
        let k = get_int rd in
        let g_flat = get_floats rd "g" in
        let f = get_floats rd "f" in
        let chol_flat = get_floats rd "chol" in
        if rd.at <> String.length payload then Error "artifact: trailing bytes"
        else begin
          let m = Array.length coeffs in
          if k < 0 || Array.length g_flat <> k * m then
            Error "artifact: design matrix size mismatch"
          else begin
            let g = Linalg.Mat.init k m (fun i j -> g_flat.((i * m) + j)) in
            let* chol = unpack_chol k chol_flat in
            let a =
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
            in
            let* () = validate a in
            Ok a
          end
        end
      with
      | Short msg -> Error ("artifact: " ^ msg)
      | Invalid_argument msg -> Error ("artifact: " ^ msg)
  end

(* ------------------------------------------------------------------ *)

let to_string format a =
  match format with Json -> to_json_string a | Binary -> to_binary_string a

let of_string s =
  if String.length s >= String.length magic
     && String.equal (String.sub s 0 (String.length magic)) magic
  then of_binary_string s
  else of_json_string s

let save ?format path a =
  let format =
    match format with
    | Some f -> f
    | None -> if Filename.check_suffix path ".json" then Json else Binary
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string format a))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string contents
  | exception Sys_error msg -> Error ("artifact: " ^ msg)
