exception Not_positive_definite of int

module A = Bigarray.Array1

type t = { l : Mat.t }

(* Numerical-health metrics: registered once at module init, recorded
   only when a sink is live — factorize runs inside CV inner loops, so
   the off path must stay a couple of branches. *)
let m_factorizations =
  Obs.Metrics.counter ~help:"Cholesky factorizations performed"
    "bmf_cholesky_factorizations_total"

let m_not_spd =
  Obs.Metrics.counter ~help:"Cholesky factorizations that lost positive definiteness"
    "bmf_cholesky_not_spd_total"

let m_pivot_min =
  Obs.Metrics.gauge ~help:"Smallest diagonal pivot of the last Cholesky factor"
    "bmf_cholesky_pivot_min"

let m_seconds =
  Obs.Metrics.histogram ~help:"Cholesky factorization latency (seconds)"
    "bmf_cholesky_factorize_seconds"

(* Row-oriented (Cholesky-Crout) factorization: for each row i we compute
   l_ij for j < i, then the diagonal pivot. Inner products walk rows of l,
   which are contiguous in the row-major layout, so we index the flat data
   array directly. *)
let factorize_impl a =
  let n, c = Mat.dims a in
  if n <> c then invalid_arg "Cholesky.factorize: not square";
  let l = Mat.create n n in
  let ld = (l : Mat.t).data and ad = (a : Mat.t).data in
  for i = 0 to n - 1 do
    let ibase = i * n in
    for j = 0 to i - 1 do
      let jbase = j * n in
      let acc = ref (A.unsafe_get ad (ibase + j)) in
      for k = 0 to j - 1 do
        acc :=
          !acc
          -. A.unsafe_get ld (ibase + k) *. A.unsafe_get ld (jbase + k)
      done;
      A.unsafe_set ld (ibase + j) (!acc /. A.unsafe_get ld (jbase + j))
    done;
    let acc = ref (A.unsafe_get ad (ibase + i)) in
    for k = 0 to i - 1 do
      let v = A.unsafe_get ld (ibase + k) in
      acc := !acc -. (v *. v)
    done;
    if !acc <= 0. || not (Float.is_finite !acc) then
      raise (Not_positive_definite i);
    A.unsafe_set ld (ibase + i) (sqrt !acc)
  done;
  { l }

let pivot_extrema f =
  let n = Mat.rows f.l in
  let mn = ref infinity and mx = ref neg_infinity in
  for i = 0 to n - 1 do
    let d = Mat.get f.l i i in
    if d < !mn then mn := d;
    if d > !mx then mx := d
  done;
  (!mn, !mx)

(* Cheap 2-norm condition estimate of a = l l^T from the pivot spread:
   (max_i l_ii / min_i l_ii)^2 lower-bounds cond_2(a) and tracks it well
   for the diagonally-shifted Gram matrices solved here. *)
let cond_estimate f =
  let mn, mx = pivot_extrema f in
  if mn <= 0. then infinity else (mx /. mn) ** 2.

let factorize a =
  if not (Obs.live ()) then factorize_impl a
  else begin
    let t0 = Obs.Clock.now_s () in
    match factorize_impl a with
    | f ->
        Obs.Metrics.observe m_seconds (Obs.Clock.now_s () -. t0);
        Obs.Metrics.inc m_factorizations;
        let mn, _ = pivot_extrema f in
        Obs.Metrics.set m_pivot_min mn;
        f
    | exception (Not_positive_definite _ as e) ->
        Obs.Metrics.inc m_not_spd;
        raise e
  end

let factor f = Mat.copy f.l

let of_factor l =
  let n, c = Mat.dims l in
  if n <> c then invalid_arg "Cholesky.of_factor: not square";
  let copy = Mat.copy l in
  for i = 0 to n - 1 do
    let d = Mat.get copy i i in
    if d <= 0. || not (Float.is_finite d) then
      invalid_arg "Cholesky.of_factor: non-positive diagonal";
    for j = i + 1 to n - 1 do
      Mat.set copy i j 0.
    done
  done;
  { l = copy }

(* In-place solve against preallocated buffers ([y] holds the forward
   intermediate, [dst] the solution; both length >= n). Allocation-free
   and bit-identical to {!solve}, which it implements. *)
let solve_into f b ~y ~dst =
  let n = Mat.rows f.l in
  if Array.length b <> n then
    invalid_arg "Cholesky.solve_into: length mismatch";
  if Array.length y < n || Array.length dst < n then
    invalid_arg "Cholesky.solve_into: scratch too short";
  let ld = (f.l : Mat.t).data in
  (* each substitution accumulates in a local [float ref], which stays
     unboxed in a register in these call-free loops; same subtraction
     order as a destination-cell accumulator *)
  (* forward: l y = b *)
  for i = 0 to n - 1 do
    let ibase = i * n in
    let acc = ref (Array.unsafe_get b i) in
    for k = 0 to i - 1 do
      acc := !acc -. (A.unsafe_get ld (ibase + k) *. Array.unsafe_get y k)
    done;
    Array.unsafe_set y i (!acc /. A.unsafe_get ld (ibase + i))
  done;
  (* backward: l^T x = y *)
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get y i) in
    for k = i + 1 to n - 1 do
      acc :=
        !acc -. (A.unsafe_get ld ((k * n) + i) *. Array.unsafe_get dst k)
    done;
    Array.unsafe_set dst i (!acc /. A.unsafe_get ld ((i * n) + i))
  done

let solve f b =
  let n = Mat.rows f.l in
  if Array.length b <> n then invalid_arg "Cholesky.solve: length mismatch";
  let y = Array.make n 0. in
  let x = Array.make n 0. in
  solve_into f b ~y ~dst:x;
  x

let solve_mat f b =
  let n = Mat.rows f.l in
  if Mat.rows b <> n then invalid_arg "Cholesky.solve_mat: dimension mismatch";
  let x = Mat.create n (Mat.cols b) in
  for j = 0 to Mat.cols b - 1 do
    Mat.set_col x j (solve f (Mat.col b j))
  done;
  x

let inverse f = solve_mat f (Mat.identity (Mat.rows f.l))

let log_det f =
  let n = Mat.rows f.l in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. log (Mat.get f.l i i)
  done;
  2. *. !acc

let solve_system a b = solve (factorize a) b
