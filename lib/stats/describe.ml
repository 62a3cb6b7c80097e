type summary = {
  count : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  median : float;
  q1 : float;
  q3 : float;
  skewness : float;
  kurtosis_excess : float;
}

let mean = Linalg.Vec.mean

let variance v =
  let n = Array.length v in
  if n < 2 then 0.
  else begin
    let m = mean v in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      v;
    !acc /. float_of_int (n - 1)
  end

let std v = sqrt (variance v)

let quantile v p =
  let n = Array.length v in
  if n = 0 then invalid_arg "Describe.quantile: empty sample";
  if p < 0. || p > 1. then invalid_arg "Describe.quantile: p outside [0, 1]";
  let sorted = Array.copy v in
  Array.sort Float.compare sorted;
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let central_moment v m k =
  let acc = ref 0. in
  Array.iter (fun x -> acc := !acc +. ((x -. m) ** float_of_int k)) v;
  !acc /. float_of_int (Array.length v)

let summarize v =
  let n = Array.length v in
  if n = 0 then invalid_arg "Describe.summarize: empty sample";
  let m = mean v in
  let s = std v in
  let mu2 = central_moment v m 2 in
  let mu3 = central_moment v m 3 in
  let mu4 = central_moment v m 4 in
  let skewness = if mu2 = 0. then 0. else mu3 /. (mu2 ** 1.5) in
  let kurtosis_excess = if mu2 = 0. then 0. else (mu4 /. (mu2 *. mu2)) -. 3. in
  {
    count = n;
    mean = m;
    std = s;
    min = Linalg.Vec.min v;
    max = Linalg.Vec.max v;
    median = quantile v 0.5;
    q1 = quantile v 0.25;
    q3 = quantile v 0.75;
    skewness;
    kurtosis_excess;
  }
