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

(* The two substitution bodies: the only loops in the repository that
   solve against a Cholesky factor. Each reads the leading n x n lower
   triangle of [l] through its row stride [cols l], accumulates in a
   local [float ref] (a register in these call-free loops) and
   subtracts left to right. [dst] may be the right-hand side itself: an
   entry is read before it is overwritten. *)
let check_block name l ~n b dst =
  if n < 0 || n > Mat.rows l || n > Mat.cols l then
    invalid_arg (name ^ ": block larger than the factor");
  if Array.length b < n || Array.length dst < n then
    invalid_arg (name ^ ": vector too short")

let forward l ~n b ~dst =
  check_block "Cholesky.forward" l ~n b dst;
  let ld = (l : Mat.t).data and s = Mat.cols l in
  for i = 0 to n - 1 do
    let ibase = i * s in
    let acc = ref (Array.unsafe_get b i) in
    for k = 0 to i - 1 do
      acc := !acc -. (A.unsafe_get ld (ibase + k) *. Array.unsafe_get dst k)
    done;
    Array.unsafe_set dst i (!acc /. A.unsafe_get ld (ibase + i))
  done

let backward l ~n y ~dst =
  check_block "Cholesky.backward" l ~n y dst;
  let ld = (l : Mat.t).data and s = Mat.cols l in
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get y i) in
    for k = i + 1 to n - 1 do
      acc :=
        !acc -. (A.unsafe_get ld ((k * s) + i) *. Array.unsafe_get dst k)
    done;
    Array.unsafe_set dst i (!acc /. A.unsafe_get ld ((i * s) + i))
  done

(* Row-oriented (Cholesky-Crout) factorization: row i of l is the
   forward substitution of row i of a against the i x i block above
   it, then the diagonal pivot. [row] carries it between the two
   row-major planes. *)
let factorize_impl a =
  let n, c = Mat.dims a in
  if n <> c then invalid_arg "Cholesky.factorize: not square";
  let l = Mat.create n n in
  let ld = (l : Mat.t).data and ad = (a : Mat.t).data in
  let row = Array.make n 0. in
  for i = 0 to n - 1 do
    let ibase = i * n in
    for j = 0 to i - 1 do
      Array.unsafe_set row j (A.unsafe_get ad (ibase + j))
    done;
    forward l ~n:i row ~dst:row;
    let acc = ref (A.unsafe_get ad (ibase + i)) in
    for k = 0 to i - 1 do
      let v = Array.unsafe_get row k in
      acc := !acc -. (v *. v)
    done;
    if !acc <= 0. || not (Float.is_finite !acc) then
      raise (Not_positive_definite i);
    for j = 0 to i - 1 do
      A.unsafe_set ld (ibase + j) (Array.unsafe_get row j)
    done;
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
  let copy = Mat.create n n in
  Mat.blit_lower ~src:l ~dst:copy n;
  for i = 0 to n - 1 do
    let d = A.unsafe_get copy.data ((i * n) + i) in
    if d <= 0. || not (Float.is_finite d) then
      invalid_arg "Cholesky.of_factor: non-positive diagonal"
  done;
  { l = copy }

let solve_into f b ~y ~dst =
  let n = Mat.rows f.l in
  if Array.length b <> n then
    invalid_arg "Cholesky.solve_into: length mismatch";
  if Array.length y < n || Array.length dst < n then
    invalid_arg "Cholesky.solve_into: scratch too short";
  forward f.l ~n b ~dst:y;
  backward f.l ~n y ~dst

let solve f b =
  let n = Mat.rows f.l in
  if Array.length b <> n then invalid_arg "Cholesky.solve: length mismatch";
  let x = Array.copy b in
  forward f.l ~n x ~dst:x;
  backward f.l ~n x ~dst:x;
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
