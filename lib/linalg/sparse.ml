type t = {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows + 1 *)
  col_idx : int array; (* length nnz *)
  values : float array; (* length nnz *)
}

type triplet = { row : int; col : int; value : float }

let of_triplets ~rows ~cols triplets =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_triplets: negative dims";
  List.iter
    (fun { row; col; _ } ->
      if row < 0 || row >= rows || col < 0 || col >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.of_triplets: index (%d, %d) out of %dx%d"
             row col rows cols))
    triplets;
  (* Sort by (row, col) and sum duplicates. *)
  let arr = Array.of_list triplets in
  Array.sort
    (fun a b ->
      match compare a.row b.row with 0 -> compare a.col b.col | c -> c)
    arr;
  let merged = ref [] and count = ref 0 in
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n do
    let { row; col; value } = arr.(!i) in
    let acc = ref value in
    incr i;
    while !i < n && arr.(!i).row = row && arr.(!i).col = col do
      acc := !acc +. arr.(!i).value;
      incr i
    done;
    merged := { row; col; value = !acc } :: !merged;
    incr count
  done;
  let entries = Array.of_list (List.rev !merged) in
  let nnz = Array.length entries in
  let row_ptr = Array.make (rows + 1) 0 in
  Array.iter (fun e -> row_ptr.(e.row + 1) <- row_ptr.(e.row + 1) + 1) entries;
  for r = 0 to rows - 1 do
    row_ptr.(r + 1) <- row_ptr.(r + 1) + row_ptr.(r)
  done;
  let col_idx = Array.make nnz 0 and values = Array.make nnz 0. in
  Array.iteri
    (fun k e ->
      col_idx.(k) <- e.col;
      values.(k) <- e.value)
    entries;
  { rows; cols; row_ptr; col_idx; values }

let dims a = (a.rows, a.cols)

let nnz a = Array.length a.values

let get a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg "Sparse.get: index out of bounds";
  let res = ref 0. in
  for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
    if a.col_idx.(k) = j then res := a.values.(k)
  done;
  !res

let mv a x =
  if Array.length x <> a.cols then invalid_arg "Sparse.mv: length mismatch";
  let y = Array.make a.rows 0. in
  for i = 0 to a.rows - 1 do
    let acc = ref 0. in
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      acc :=
        !acc
        +. Array.unsafe_get a.values k
           *. Array.unsafe_get x (Array.unsafe_get a.col_idx k)
    done;
    Array.unsafe_set y i !acc
  done;
  y

let mv_t a x =
  if Array.length x <> a.rows then invalid_arg "Sparse.mv_t: length mismatch";
  let y = Array.make a.cols 0. in
  for i = 0 to a.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then
      for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
        let j = Array.unsafe_get a.col_idx k in
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (xi *. Array.unsafe_get a.values k))
      done
  done;
  y

let to_dense a =
  let m = Mat.create a.rows a.cols in
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      Mat.set m i a.col_idx.(k) a.values.(k)
    done
  done;
  m

let of_dense ?(tol = 0.) m =
  let rows, cols = Mat.dims m in
  let triplets = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = Mat.get m i j in
      if Float.abs v > tol then triplets := { row = i; col = j; value = v } :: !triplets
    done
  done;
  of_triplets ~rows ~cols !triplets

let scale s a = { a with values = Array.map (fun v -> s *. v) a.values }

let iter f a =
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      f i a.col_idx.(k) a.values.(k)
    done
  done

let is_symmetric ?(tol = 1e-9) a =
  a.rows = a.cols
  &&
  let ok = ref true in
  iter
    (fun i j v ->
      let w = get a j i in
      let scale = Float.max 1. (Float.max (Float.abs v) (Float.abs w)) in
      if Float.abs (v -. w) > tol *. scale then ok := false)
    a;
  !ok
