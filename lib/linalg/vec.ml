type t = float array

let create n = Array.make n 0.

let init = Array.init

let make = Array.make

let copy = Array.copy

let dim = Array.length

let of_list = Array.of_list

let to_list = Array.to_list

let fill v c = Array.fill v 0 (Array.length v) c

let check_same_dim name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

let dot x y =
  check_same_dim "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !acc

(* Scaled two-norm: factor out the largest magnitude so that squaring never
   overflows even for huge entries. *)
let nrm2 x =
  let n = Array.length x in
  if n = 0 then 0.
  else begin
    let amax = ref 0. in
    for i = 0 to n - 1 do
      let a = Float.abs (Array.unsafe_get x i) in
      if a > !amax then amax := a
    done;
    if !amax = 0. || not (Float.is_finite !amax) then !amax
    else begin
      let s = ref 0. in
      let m = !amax in
      for i = 0 to n - 1 do
        let r = Array.unsafe_get x i /. m in
        s := !s +. (r *. r)
      done;
      m *. sqrt !s
    end
  end

let norm1 x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. Float.abs (Array.unsafe_get x i)
  done;
  !acc

let norm_inf x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs (Array.unsafe_get x i) in
    if a > !acc then acc := a
  done;
  !acc

let scale a v = Array.map (fun x -> a *. x) v

let scale_inplace a v =
  for i = 0 to Array.length v - 1 do
    Array.unsafe_set v i (a *. Array.unsafe_get v i)
  done

let neg v = Array.map (fun x -> -.x) v

let map2 f x y =
  check_same_dim "map2" x y;
  Array.init (Array.length x) (fun i ->
      f (Array.unsafe_get x i) (Array.unsafe_get y i))

let add x y = map2 ( +. ) x y

let sub x y = map2 ( -. ) x y

let mul x y = map2 ( *. ) x y

(* In-place twins with preallocated destinations; same element order as
   the allocating versions, so results are bit-identical. [dst] may
   alias either input. *)
let check_into name x y dst =
  check_same_dim name x y;
  if Array.length dst <> Array.length x then
    invalid_arg
      (Printf.sprintf "Vec.%s: destination length mismatch (%d vs %d)" name
         (Array.length dst) (Array.length x))

let add_into x y dst =
  check_into "add_into" x y dst;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set dst i (Array.unsafe_get x i +. Array.unsafe_get y i)
  done

let sub_into x y dst =
  check_into "sub_into" x y dst;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set dst i (Array.unsafe_get x i -. Array.unsafe_get y i)
  done

let mul_into x y dst =
  check_into "mul_into" x y dst;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set dst i (Array.unsafe_get x i *. Array.unsafe_get y i)
  done

let axpy a x y =
  check_same_dim "axpy" x y;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set y i ((a *. Array.unsafe_get x i) +. Array.unsafe_get y i)
  done

let add_inplace x y = axpy 1. x y

let sub_inplace x y =
  check_same_dim "sub_inplace" x y;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i -. Array.unsafe_get x i)
  done

let map = Array.map

let mapi = Array.mapi

let iteri = Array.iteri

let fold = Array.fold_left

let sum x =
  (* Kahan compensated summation. *)
  let s = ref 0. and c = ref 0. in
  for i = 0 to Array.length x - 1 do
    let y = Array.unsafe_get x i -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

let mean x =
  if Array.length x = 0 then invalid_arg "Vec.mean: empty vector";
  sum x /. float_of_int (Array.length x)

let min x =
  if Array.length x = 0 then invalid_arg "Vec.min: empty vector";
  Array.fold_left Float.min x.(0) x

let max x =
  if Array.length x = 0 then invalid_arg "Vec.max: empty vector";
  Array.fold_left Float.max x.(0) x

let argmax_abs x =
  if Array.length x = 0 then invalid_arg "Vec.argmax_abs: empty vector";
  let best = ref 0 and best_v = ref (Float.abs x.(0)) in
  for i = 1 to Array.length x - 1 do
    let a = Float.abs (Array.unsafe_get x i) in
    if a > !best_v then begin
      best := i;
      best_v := a
    end
  done;
  !best

let dist2 x y = nrm2 (sub x y)

let rel_error approx exact =
  let d = dist2 approx exact in
  let n = nrm2 exact in
  if n = 0. then nrm2 approx else d /. n

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    let a = x.(i) and b = y.(i) in
    let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
    if Float.abs (a -. b) > tol *. scale then ok := false
  done;
  !ok

let concat = Array.concat

let slice v pos len = Array.sub v pos len

let gather v idx =
  let out = Array.make (Array.length idx) 0. in
  Array.iteri (fun r i -> Array.unsafe_set out r v.(i)) idx;
  out

let pp fmt v =
  let n = Array.length v in
  let shown = Stdlib.min n 8 in
  Format.fprintf fmt "[";
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf fmt "; ";
    Format.fprintf fmt "%g" v.(i)
  done;
  if n > shown then Format.fprintf fmt "; ...(%d)" n;
  Format.fprintf fmt "]"
