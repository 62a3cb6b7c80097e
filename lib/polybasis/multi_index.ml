type t = (int * int) array

let constant = [||]

let linear i =
  if i < 0 then invalid_arg "Multi_index.linear: negative variable";
  [| (i, 1) |]

let pure i d =
  if i < 0 then invalid_arg "Multi_index.pure: negative variable";
  if d < 0 then invalid_arg "Multi_index.pure: negative degree";
  if d = 0 then constant else [| (i, d) |]

(* One array and no hashing: a sort by variable (skipped when the pairs
   already ascend, as stored terms do), then a pass that sums the
   degrees of each run of one variable in place and drops zero sums. A
   new pair is allocated only for a run that sums more than its
   first degree. *)
let of_pairs pairs =
  let a = Array.of_list pairs in
  let n = Array.length a in
  let ascending = ref true in
  for i = 0 to n - 1 do
    let v, d = a.(i) in
    if v < 0 then invalid_arg "Multi_index.of_pairs: negative variable";
    if d < 0 then invalid_arg "Multi_index.of_pairs: negative degree";
    if i > 0 && fst a.(i - 1) >= v then ascending := false
  done;
  if not !ascending then
    Array.sort (fun (u, _) (v, _) -> Int.compare u v) a;
  let kept = ref 0 and i = ref 0 in
  while !i < n do
    let start = !i in
    let v, d = a.(start) in
    let sum = ref d in
    i := start + 1;
    while !i < n && fst a.(!i) = v do
      sum := !sum + snd a.(!i);
      incr i
    done;
    if !sum > 0 then begin
      a.(!kept) <- (if !sum = d then a.(start) else (v, !sum));
      incr kept
    end
  done;
  if !kept = n then a else Array.sub a 0 !kept

let total_degree t = Array.fold_left (fun acc (_, d) -> acc + d) 0 t

let variables t = Array.to_list (Array.map fst t)

let max_variable t =
  Array.fold_left (fun acc (v, _) -> Stdlib.max acc v) (-1) t

let lex_compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      match Stdlib.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  go 0

let compare a b =
  match Stdlib.compare (total_degree a) (total_degree b) with
  | 0 -> lex_compare a b
  | c -> c

let equal a b = compare a b = 0

let remap f t =
  let mapped = Array.map (fun (v, d) -> (f v, d)) t in
  Array.iter
    (fun (v, _) ->
      if v < 0 then invalid_arg "Multi_index.remap: negative image")
    mapped;
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) mapped;
  (* injectivity check: no duplicate variables after mapping *)
  for i = 1 to Array.length mapped - 1 do
    if fst mapped.(i) = fst mapped.(i - 1) then
      invalid_arg "Multi_index.remap: map is not injective on this term"
  done;
  mapped

let all_up_to_degree ~r ~d =
  if r < 0 || d < 0 then invalid_arg "Multi_index.all_up_to_degree: negative";
  (* count = C(r + d, d); guard against explosions *)
  let count =
    let acc = ref 1. in
    for i = 1 to d do
      acc := !acc *. float_of_int (r + i) /. float_of_int i
    done;
    !acc
  in
  if count > 4194304. then
    invalid_arg "Multi_index.all_up_to_degree: basis too large";
  (* enumerate exponent vectors recursively, sparsely *)
  let results = ref [] in
  let rec go var budget acc =
    if var = r then results := of_pairs acc :: !results
    else
      for e = 0 to budget do
        go (var + 1) (budget - e) (if e > 0 then (var, e) :: acc else acc)
      done
  in
  go 0 d [];
  List.sort compare !results

let pp fmt t =
  if Array.length t = 0 then Format.fprintf fmt "1"
  else
    Array.iteri
      (fun i (v, d) ->
        if i > 0 then Format.fprintf fmt "*";
        if d = 1 then Format.fprintf fmt "x%d" v
        else Format.fprintf fmt "x%d^%d" v d)
      t
