type t = {
  lo : float;
  hi : float;
  counts : int array;
  total : int;
  underflow : int;
  overflow : int;
}

let build ?(bins = 30) ?range data =
  if Array.length data = 0 then invalid_arg "Histogram.build: empty data";
  if bins <= 0 then invalid_arg "Histogram.build: bins must be positive";
  let lo, hi =
    match range with
    | Some (lo, hi) ->
        if lo >= hi then invalid_arg "Histogram.build: empty range";
        (lo, hi)
    | None ->
        let lo = Linalg.Vec.min data and hi = Linalg.Vec.max data in
        if lo = hi then (lo -. 0.5, hi +. 0.5)
        else
          (* widen slightly so max falls inside the last bin *)
          let eps = 1e-9 *. (hi -. lo) in
          (lo, hi +. eps)
  in
  let counts = Array.make bins 0 in
  let underflow = ref 0 and overflow = ref 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      if x < lo then incr underflow
      else if x >= hi then incr overflow
      else begin
        let b = int_of_float ((x -. lo) /. width) in
        let b = Stdlib.min b (bins - 1) in
        counts.(b) <- counts.(b) + 1
      end)
    data;
  {
    lo;
    hi;
    counts;
    total = Array.length data;
    underflow = !underflow;
    overflow = !overflow;
  }

let bins t = Array.length t.counts

let bin_edges t =
  let n = bins t in
  let width = (t.hi -. t.lo) /. float_of_int n in
  Array.init (n + 1) (fun i -> t.lo +. (float_of_int i *. width))

let bin_centers t =
  let n = bins t in
  let width = (t.hi -. t.lo) /. float_of_int n in
  Array.init n (fun i -> t.lo +. ((float_of_int i +. 0.5) *. width))

let density t =
  let n = bins t in
  let width = (t.hi -. t.lo) /. float_of_int n in
  let norm = float_of_int t.total *. width in
  Array.map (fun c -> float_of_int c /. norm) t.counts
