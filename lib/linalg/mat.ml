(* Dense row-major matrices over Bigarray float64 storage.

   The data plane lives outside the OCaml heap: the GC never scans,
   copies or compacts it, domains can share it without write barriers,
   and reads/writes in float context compile to unboxed loads/stores.
   Every kernel below keeps the exact loop order of the original
   [float array] implementation, so results are bit-identical — this is
   test-enforced against golden fingerprints captured from the seed
   kernels. *)

module A = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = { rows : int; cols : int; data : buf }

(* Fully-applied wrappers, not eta-reduced aliases: an alias of
   [A.unsafe_get] is a closure whose generic call boxes every float it
   returns. As one-expression functions these inline at each use site,
   where the fully-applied primitive compiles to an unboxed load/store. *)
let[@inline] uget (d : buf) i : float = A.unsafe_get d i

let[@inline] uset (d : buf) i (v : float) = A.unsafe_set d i v

let buf_create n : buf =
  let b = A.create Bigarray.float64 Bigarray.c_layout n in
  A.fill b 0.;
  b

let check_dims r c =
  if r < 0 || c < 0 then invalid_arg "Mat: negative dimension"

let create r c =
  check_dims r c;
  { rows = r; cols = c; data = buf_create (r * c) }

let init r c f =
  check_dims r c;
  let data = buf_create (r * c) in
  for i = 0 to r - 1 do
    let base = i * c in
    for j = 0 to c - 1 do
      uset data (base + j) (f i j)
    done
  done;
  { rows = r; cols = c; data }

let make r c v =
  check_dims r c;
  let data = buf_create (r * c) in
  A.fill data v;
  { rows = r; cols = c; data }

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then { rows = 0; cols = 0; data = buf_create 0 }
  else begin
    let c = Array.length rows_arr.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init r c (fun i j -> rows_arr.(i).(j))
  end

let of_rows rows_list = of_arrays (Array.of_list rows_list)

(* [copy] walks exactly [rows * cols] entries so that copying a
   row-count view of a larger capacity buffer yields a tight matrix. *)
let copy a =
  let n = a.rows * a.cols in
  let data = buf_create n in
  for i = 0 to n - 1 do
    uset data i (uget a.data i)
  done;
  { a with data }

let dims a = (a.rows, a.cols)

let rows a = a.rows

let cols a = a.cols

let data a = a.data

let to_flat a =
  let n = a.rows * a.cols in
  Array.init n (fun i -> uget a.data i)

let of_flat ~rows ~cols flat =
  if Array.length flat <> rows * cols then
    invalid_arg "Mat.of_flat: length mismatch";
  init rows cols (fun i j -> flat.((i * cols) + j))

(* A borrowed view of the first [k] rows: shares storage with [a], so
   writes through either alias are visible in both. The backbone of the
   scratch-arena contract — kernels run on a view sized to the live
   batch while the arena keeps its full capacity. *)
let view_rows a k =
  if k < 0 || k * a.cols > A.dim a.data then
    invalid_arg "Mat.view_rows: row count out of range";
  { a with rows = k }

let fill a v = A.fill a.data v

let get a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg "Mat.get: index out of bounds";
  uget a.data ((i * a.cols) + j)

let set a i j v =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg "Mat.set: index out of bounds";
  uset a.data ((i * a.cols) + j) v

let row_into a i (dst : Vec.t) =
  if i < 0 || i >= a.rows then invalid_arg "Mat.row_into: index out of bounds";
  if Array.length dst <> a.cols then
    invalid_arg "Mat.row_into: length mismatch";
  let base = i * a.cols in
  for j = 0 to a.cols - 1 do
    Array.unsafe_set dst j (uget a.data (base + j))
  done

let row a i =
  if i < 0 || i >= a.rows then invalid_arg "Mat.row: index out of bounds";
  let dst = Array.make a.cols 0. in
  row_into a i dst;
  dst

let col a j =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col: index out of bounds";
  Array.init a.rows (fun i -> uget a.data ((i * a.cols) + j))

let set_row a i v =
  if i < 0 || i >= a.rows then invalid_arg "Mat.set_row: index out of bounds";
  if Array.length v <> a.cols then invalid_arg "Mat.set_row: length mismatch";
  let base = i * a.cols in
  for j = 0 to a.cols - 1 do
    uset a.data (base + j) (Array.unsafe_get v j)
  done

let set_col a j v =
  if j < 0 || j >= a.cols then invalid_arg "Mat.set_col: index out of bounds";
  if Array.length v <> a.rows then invalid_arg "Mat.set_col: length mismatch";
  for i = 0 to a.rows - 1 do
    uset a.data ((i * a.cols) + j) (Array.unsafe_get v i)
  done

(* Same-width bulk row copy between matrices (daemon batch fusing). *)
let blit_rows ~src ~dst ~dst_row =
  if src.cols <> dst.cols then invalid_arg "Mat.blit_rows: width mismatch";
  if dst_row < 0 || dst_row + src.rows > dst.rows then
    invalid_arg "Mat.blit_rows: rows out of range";
  let n = src.rows * src.cols in
  let off = dst_row * dst.cols in
  for i = 0 to n - 1 do
    uset dst.data (off + i) (uget src.data i)
  done

let transpose a =
  let b = create a.cols a.rows in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      uset b.data ((j * b.cols) + i) (uget a.data (base + j))
    done
  done;
  b

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name
         a.rows a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  let n = a.rows * a.cols in
  let data = buf_create n in
  for i = 0 to n - 1 do
    uset data i (uget a.data i +. uget b.data i)
  done;
  { a with data }

let sub a b =
  check_same "sub" a b;
  let n = a.rows * a.cols in
  let data = buf_create n in
  for i = 0 to n - 1 do
    uset data i (uget a.data i -. uget b.data i)
  done;
  { a with data }

let scale s a =
  let n = a.rows * a.cols in
  let data = buf_create n in
  for i = 0 to n - 1 do
    uset data i (s *. uget a.data i)
  done;
  { a with data }

let add_diag a d =
  if a.rows <> a.cols then invalid_arg "Mat.add_diag: not square";
  if Array.length d <> a.rows then invalid_arg "Mat.add_diag: length mismatch";
  let b = copy a in
  for i = 0 to a.rows - 1 do
    let k = (i * a.cols) + i in
    uset b.data k (uget b.data k +. Array.unsafe_get d i)
  done;
  b

let diag a =
  if a.rows <> a.cols then invalid_arg "Mat.diag: not square";
  Array.init a.rows (fun i -> uget a.data ((i * a.cols) + i))

let of_diag d =
  let n = Array.length d in
  init n n (fun i j -> if i = j then d.(i) else 0.)

let gemv_into a x (y : Vec.t) =
  if Array.length x <> a.cols then invalid_arg "Mat.gemv_into: length mismatch";
  if Array.length y < a.rows then
    invalid_arg "Mat.gemv_into: destination too short";
  let data = a.data and c = a.cols in
  (* a local [float ref] in a call-free loop stays unboxed in a
     register under vanilla ocamlopt; accumulating in the destination
     cell instead made every multiply-add wait on a store and a
     reload. Left-to-right order from 0. *)
  for i = 0 to a.rows - 1 do
    let base = i * c in
    let acc = ref 0. in
    for j = 0 to c - 1 do
      acc := !acc +. (uget data (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set y i !acc
  done

let gemv a x =
  if Array.length x <> a.cols then invalid_arg "Mat.gemv: length mismatch";
  let y = Array.make a.rows 0. in
  gemv_into a x y;
  y

let gemv_t_into a x (y : Vec.t) =
  if Array.length x <> a.rows then
    invalid_arg "Mat.gemv_t_into: length mismatch";
  if Array.length y < a.cols then
    invalid_arg "Mat.gemv_t_into: destination too short";
  Array.fill y 0 a.cols 0.;
  let data = a.data and c = a.cols in
  for i = 0 to a.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then begin
      let base = i * c in
      for j = 0 to c - 1 do
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (xi *. uget data (base + j)))
      done
    end
  done

let gemv_t a x =
  if Array.length x <> a.rows then invalid_arg "Mat.gemv_t: length mismatch";
  let y = Array.make a.cols 0. in
  gemv_t_into a x y;
  y

(* Row-major dot of row [i] against a plain vector, no intermediate
   copy; summation order matches [Vec.dot] on the copied row. *)
let row_dot a i (x : Vec.t) =
  if i < 0 || i >= a.rows then invalid_arg "Mat.row_dot: index out of bounds";
  if Array.length x <> a.cols then invalid_arg "Mat.row_dot: length mismatch";
  let base = i * a.cols in
  let acc = ref 0. in
  for j = 0 to a.cols - 1 do
    acc := !acc +. (uget a.data (base + j) *. Array.unsafe_get x j)
  done;
  !acc

(* ikj loop order: the inner loop walks both [b] and [c] rows contiguously. *)
let gemm_into a b c =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.gemm_into: dimension mismatch (%dx%d * %dx%d)"
         a.rows a.cols b.rows b.cols);
  if c.rows <> a.rows || c.cols <> b.cols then
    invalid_arg "Mat.gemm_into: destination dimension mismatch";
  let n = b.cols in
  for i = 0 to (a.rows * n) - 1 do
    uset c.data i 0.
  done;
  for i = 0 to a.rows - 1 do
    let abase = i * a.cols and cbase = i * n in
    for k = 0 to a.cols - 1 do
      let aik = uget a.data (abase + k) in
      if aik <> 0. then begin
        let bbase = k * n in
        for j = 0 to n - 1 do
          uset c.data (cbase + j)
            (uget c.data (cbase + j) +. (aik *. uget b.data (bbase + j)))
        done
      end
    done
  done

let gemm a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.gemm: dimension mismatch (%dx%d * %dx%d)" a.rows
         a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  gemm_into a b c;
  c

let sym_mirror_upper a =
  if a.rows <> a.cols then invalid_arg "Mat.sym_mirror_upper: not square";
  let n = a.rows in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      uset a.data ((j * n) + i) (uget a.data ((i * n) + j))
    done
  done

(* a^T a via accumulated rank-1 updates of the rows: upper triangle only,
   then mirrored. Every access is contiguous in the row. *)
let weighted_gram a w =
  if Array.length w <> a.rows then
    invalid_arg "Mat.weighted_gram: weight length mismatch";
  let m = a.cols in
  let c = create m m in
  for k = 0 to a.rows - 1 do
    let base = k * m in
    let wk = Array.unsafe_get w k in
    if wk <> 0. then
      for i = 0 to m - 1 do
        let v = wk *. uget a.data (base + i) in
        if v <> 0. then begin
          let cbase = i * m in
          for j = i to m - 1 do
            uset c.data (cbase + j)
              (uget c.data (cbase + j) +. (v *. uget a.data (base + j)))
          done
        end
      done
  done;
  sym_mirror_upper c;
  c

(* Unweighted fast path: with w_k = 1 everywhere, [1. *. x] is exactly
   [x], so this produces bit-identical results to [weighted_gram] with
   an all-ones vector — without materializing that vector per call. *)
let gram a =
  let m = a.cols in
  let c = create m m in
  for k = 0 to a.rows - 1 do
    let base = k * m in
    for i = 0 to m - 1 do
      let v = uget a.data (base + i) in
      if v <> 0. then begin
        let cbase = i * m in
        for j = i to m - 1 do
          uset c.data (cbase + j)
            (uget c.data (cbase + j) +. (v *. uget a.data (base + j)))
        done
      end
    done
  done;
  sym_mirror_upper c;
  c

(* a diag(w) a^T: rows are contiguous so the triple loop is fully
   sequential; upper triangle then mirror. Four entries of a row at a
   time share each load of row i and of w, in four independent register
   sums; every entry keeps the left-to-right order of the one-entry
   loop that finishes the row. *)
let weighted_outer_gram a w =
  if Array.length w <> a.cols then
    invalid_arg "Mat.weighted_outer_gram: weight length mismatch";
  let k = a.rows and m = a.cols in
  let c = create k k in
  let d = a.data in
  for i = 0 to k - 1 do
    let ibase = i * m in
    let j = ref i in
    while !j + 3 < k do
      let b0 = !j * m in
      let b1 = b0 + m in
      let b2 = b1 + m in
      let b3 = b2 + m in
      let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
      for t = 0 to m - 1 do
        let x = uget d (ibase + t) *. Array.unsafe_get w t in
        a0 := !a0 +. (x *. uget d (b0 + t));
        a1 := !a1 +. (x *. uget d (b1 + t));
        a2 := !a2 +. (x *. uget d (b2 + t));
        a3 := !a3 +. (x *. uget d (b3 + t))
      done;
      let cbase = (i * k) + !j in
      uset c.data cbase !a0;
      uset c.data (cbase + 1) !a1;
      uset c.data (cbase + 2) !a2;
      uset c.data (cbase + 3) !a3;
      j := !j + 4
    done;
    for j = !j to k - 1 do
      let jbase = j * m in
      let acc = ref 0. in
      for t = 0 to m - 1 do
        acc :=
          !acc
          +. (uget d (ibase + t) *. Array.unsafe_get w t *. uget d (jbase + t))
      done;
      uset c.data ((i * k) + j) !acc
    done
  done;
  sym_mirror_upper c;
  c

(* Unweighted fast path of [weighted_outer_gram]; [x *. 1. *. y] is
   exactly [x *. y], so no all-ones weight vector is allocated. *)
let outer_gram a =
  let k = a.rows and m = a.cols in
  let c = create k k in
  for i = 0 to k - 1 do
    let ibase = i * m in
    for j = i to k - 1 do
      let jbase = j * m in
      let acc = ref 0. in
      for t = 0 to m - 1 do
        acc := !acc +. (uget a.data (ibase + t) *. uget a.data (jbase + t))
      done;
      uset c.data ((i * k) + j) !acc
    done
  done;
  sym_mirror_upper c;
  c

let mul_cols a w =
  if Array.length w <> a.cols then
    invalid_arg "Mat.mul_cols: weight length mismatch";
  let b = copy a in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      uset b.data (base + j) (uget b.data (base + j) *. Array.unsafe_get w j)
    done
  done;
  b

(* Scaled two-norm over the flat storage, entry-for-entry the same
   two-pass algorithm as [Vec.nrm2]. *)
let frobenius a =
  let n = a.rows * a.cols in
  if n = 0 then 0.
  else begin
    let amax = ref 0. in
    for i = 0 to n - 1 do
      let v = Float.abs (uget a.data i) in
      if v > !amax then amax := v
    done;
    if !amax = 0. || not (Float.is_finite !amax) then !amax
    else begin
      let s = ref 0. in
      let m = !amax in
      for i = 0 to n - 1 do
        let r = uget a.data i /. m in
        s := !s +. (r *. r)
      done;
      m *. sqrt !s
    end
  end

(* Column two-norm with strided access and no intermediate column copy:
   the same two-pass scaled algorithm as [Vec.nrm2] on a copied column,
   so the result is bit-identical. *)
let col_nrm2 a j =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col_nrm2: index out of bounds";
  let n = a.rows and c = a.cols in
  if n = 0 then 0.
  else begin
    let amax = ref 0. in
    for i = 0 to n - 1 do
      let v = Float.abs (uget a.data ((i * c) + j)) in
      if v > !amax then amax := v
    done;
    if !amax = 0. || not (Float.is_finite !amax) then !amax
    else begin
      let s = ref 0. in
      let m = !amax in
      for i = 0 to n - 1 do
        let r = uget a.data ((i * c) + j) /. m in
        s := !s +. (r *. r)
      done;
      m *. sqrt !s
    end
  end

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let n = a.rows * a.cols in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (Float.equal (uget a.data i) (uget b.data i)) then ok := false
  done;
  !ok

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let n = a.rows * a.cols in
  let ok = ref true in
  for i = 0 to n - 1 do
    let x = uget a.data i and y = uget b.data i in
    let scale = Float.max 1. (Float.max (Float.abs x) (Float.abs y)) in
    if Float.abs (x -. y) > tol *. scale then ok := false
  done;
  !ok

let is_symmetric ?(tol = 1e-9) a =
  a.rows = a.cols
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = i + 1 to a.cols - 1 do
      let x = get a i j and y = get a j i in
      let scale = Float.max 1. (Float.max (Float.abs x) (Float.abs y)) in
      if Float.abs (x -. y) > tol *. scale then ok := false
    done
  done;
  !ok

let swap_rows a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.rows then
    invalid_arg "Mat.swap_rows: index out of bounds";
  if i <> j then begin
    let c = a.cols in
    for t = 0 to c - 1 do
      let x = uget a.data ((i * c) + t) in
      uset a.data ((i * c) + t) (uget a.data ((j * c) + t));
      uset a.data ((j * c) + t) x
    done
  end

let map f a =
  let n = a.rows * a.cols in
  let data = buf_create n in
  for i = 0 to n - 1 do
    uset data i (f (uget a.data i))
  done;
  { a with data }

let pp fmt a =
  Format.fprintf fmt "@[<v>matrix %dx%d" a.rows a.cols;
  let rmax = Stdlib.min a.rows 6 and cmax = Stdlib.min a.cols 6 in
  for i = 0 to rmax - 1 do
    Format.fprintf fmt "@,| ";
    for j = 0 to cmax - 1 do
      Format.fprintf fmt "%10.4g " (get a i j)
    done;
    if a.cols > cmax then Format.fprintf fmt "..."
  done;
  if a.rows > rmax then Format.fprintf fmt "@,| ...";
  Format.fprintf fmt "@]"
