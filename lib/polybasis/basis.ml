type t = {
  dim : int;
  terms : Multi_index.t array;
  max_degree : int; (* largest single-variable degree across terms *)
}

let max_single_degree terms =
  Array.fold_left
    (fun acc term ->
      Array.fold_left (fun acc (_, d) -> Stdlib.max acc d) acc term)
    0 terms

let of_terms ~dim terms_list =
  let terms = Array.of_list terms_list in
  Array.iter
    (fun term ->
      if Multi_index.max_variable term >= dim then
        invalid_arg "Basis.of_terms: term references variable out of range")
    terms;
  let seen = Hashtbl.create (Array.length terms) in
  Array.iter
    (fun term ->
      let key = Array.to_list term in
      if Hashtbl.mem seen key then
        invalid_arg "Basis.of_terms: duplicate term";
      Hashtbl.add seen key ())
    terms;
  { dim; terms; max_degree = max_single_degree terms }

let linear r =
  of_terms ~dim:r
    (Multi_index.constant :: List.init r (fun i -> Multi_index.linear i))

let quadratic_diagonal r =
  of_terms ~dim:r
    (Multi_index.constant
    :: (List.init r (fun i -> Multi_index.linear i)
       @ List.init r (fun i -> Multi_index.pure i 2)))

let total_degree ~r ~d = of_terms ~dim:r (Multi_index.all_up_to_degree ~r ~d)

let dim b = b.dim

let size b = Array.length b.terms

let term b m =
  if m < 0 || m >= Array.length b.terms then
    invalid_arg "Basis.term: index out of range";
  b.terms.(m)

let terms b = Array.copy b.terms

let index_of_term b t =
  let found = ref None in
  Array.iteri
    (fun i term ->
      if !found = None && Multi_index.equal term t then found := Some i)
    b.terms;
  !found

let m_design_seconds =
  Obs.Metrics.histogram ~help:"Design-matrix evaluation latency (seconds)"
    "bmf_design_matrix_seconds"

let m_design_rows =
  Obs.Metrics.counter ~help:"Design-matrix rows evaluated"
    "bmf_design_matrix_rows_total"

(* Span + latency bracket; the instrumented path runs the same loop,
   only bracketed by clock reads. *)
let observed b ~rows impl =
  if not (Obs.live ()) then impl ()
  else
    Obs.Trace.with_span ~cat:"polybasis" "design_matrix_into" (fun sp ->
        Obs.Trace.set_attr sp "rows" (Obs.Trace.Int rows);
        Obs.Trace.set_attr sp "terms" (Obs.Trace.Int (size b));
        Obs.Trace.set_attr sp "max_degree" (Obs.Trace.Int b.max_degree);
        let t0 = Obs.Clock.now_s () in
        let g = impl () in
        Obs.Metrics.observe m_design_seconds (Obs.Clock.now_s () -. t0);
        Obs.Metrics.inc ~by:(float_of_int rows) m_design_rows;
        g)

(* Preallocated per-evaluator state for [design_matrix_into]: the
   per-variable degree requirements and one Hermite table per variable
   that needs degree >= 2. The tables are refilled row by row, so one
   scratch serves any number of rows. *)
module Scratch = struct
  type basis = t

  type t = {
    basis : basis; (* physical identity guards against stale reuse *)
    need : int array;
    herm : float array option array;
  }

  let create b =
    let need = Array.make b.dim 0 in
    Array.iter
      (fun term ->
        Array.iter (fun (v, d) -> need.(v) <- Stdlib.max need.(v) d) term)
      b.terms;
    let herm =
      Array.init b.dim (fun v ->
          if need.(v) >= 2 then Some (Array.make (need.(v) + 1) 1.) else None)
    in
    { basis = b; need; herm }
end

(* The one basis evaluator: writes the basis on [xs] straight into the
   preallocated [dst]. Runs sequentially in the calling domain and
   refills the scratch Hermite tables per row; every term is the
   left-to-right product of its factors' normalized Hermite values. *)
let design_matrix_into b ~scratch xs ~dst =
  if not (scratch.Scratch.basis == b) then
    invalid_arg "Basis.design_matrix_into: scratch built for another basis";
  let k, r = Linalg.Mat.dims xs in
  if r <> b.dim then
    invalid_arg "Basis.design_matrix_into: dimension mismatch";
  let m = size b in
  let dk, dm = Linalg.Mat.dims dst in
  if dk <> k || dm <> m then
    invalid_arg "Basis.design_matrix_into: destination shape mismatch";
  observed b ~rows:k @@ fun () ->
  (* Work straight on the Bigarray storage with unboxed loads/stores,
     accumulating each term's product in its destination cell, where
     the design matrix wants it (a local [float ref] would stay unboxed
     too; a cross-module get/set call would box a float per factor).
     Bounds were checked above. *)
  let module A = Bigarray.Array1 in
  let xd = Linalg.Mat.data xs in
  let dd = Linalg.Mat.data dst in
  if b.max_degree <= 1 then
    for i = 0 to k - 1 do
      let xbase = i * r and dbase = i * m in
      for j = 0 to m - 1 do
        let term = Array.unsafe_get b.terms j in
        let nt = Array.length term in
        A.unsafe_set dd (dbase + j) 1.;
        for p = 0 to nt - 1 do
          let v, _ = Array.unsafe_get term p in
          A.unsafe_set dd (dbase + j)
            (A.unsafe_get dd (dbase + j) *. A.unsafe_get xd (xbase + v))
        done
      done
    done
  else begin
    let need = scratch.Scratch.need in
    let herm = scratch.Scratch.herm in
    for i = 0 to k - 1 do
      let xbase = i * r and dbase = i * m in
      for v = 0 to b.dim - 1 do
        match Array.unsafe_get herm v with
        | Some table ->
            Hermite.normalized_upto_into need.(v)
              (A.unsafe_get xd (xbase + v))
              table
        | None -> ()
      done;
      for j = 0 to m - 1 do
        let term = Array.unsafe_get b.terms j in
        let nt = Array.length term in
        A.unsafe_set dd (dbase + j) 1.;
        for p = 0 to nt - 1 do
          let v, d = Array.unsafe_get term p in
          let value =
            match Array.unsafe_get herm v with
            | Some table -> Array.unsafe_get table d
            | None -> A.unsafe_get xd (xbase + v)
          in
          A.unsafe_set dd (dbase + j) (A.unsafe_get dd (dbase + j) *. value)
        done
      done
    done
  end

let design_matrix b xs =
  let k, r = Linalg.Mat.dims xs in
  if r <> b.dim then invalid_arg "Basis.design_matrix: dimension mismatch";
  let dst = Linalg.Mat.create k (size b) in
  design_matrix_into b ~scratch:(Scratch.create b) xs ~dst;
  dst

let eval_row b x =
  if Array.length x <> b.dim then invalid_arg "Basis.eval_row: bad point";
  let xs = Linalg.Mat.of_flat ~rows:1 ~cols:b.dim x in
  Linalg.Mat.to_flat (design_matrix b xs)

let check_coeffs b coeffs =
  if Array.length coeffs <> size b then
    invalid_arg "Basis.predict: coefficient length mismatch"

let predict b ~coeffs x =
  check_coeffs b coeffs;
  Linalg.Vec.dot coeffs (eval_row b x)

let predict_many b ~coeffs xs =
  check_coeffs b coeffs;
  Linalg.Mat.gemv (design_matrix b xs) coeffs

let extend b new_terms =
  let existing = Array.to_list b.terms in
  List.iter
    (fun t ->
      if List.exists (Multi_index.equal t) existing then
        invalid_arg "Basis.extend: term already present")
    new_terms;
  let all = existing @ new_terms in
  let dim =
    List.fold_left
      (fun acc t -> Stdlib.max acc (Multi_index.max_variable t + 1))
      b.dim all
  in
  of_terms ~dim all
