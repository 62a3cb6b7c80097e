type t = { fingers : int array; offsets : int array; total : int }

let create fingers =
  Array.iteri
    (fun r w ->
      if w < 1 then
        invalid_arg
          (Printf.sprintf "Prior_mapping.create: fingers.(%d) = %d < 1" r w))
    fingers;
  let n = Array.length fingers in
  let offsets = Array.make n 0 in
  let acc = ref 0 in
  for r = 0 to n - 1 do
    offsets.(r) <- !acc;
    acc := !acc + fingers.(r)
  done;
  { fingers = Array.copy fingers; offsets; total = !acc }

let identity r = create (Array.make r 1)

let early_dim t = Array.length t.fingers

let late_dim t = t.total

let fingers t r =
  if r < 0 || r >= early_dim t then
    invalid_arg "Prior_mapping.fingers: variable out of range";
  t.fingers.(r)

let late_var t ~sch ~finger =
  if sch < 0 || sch >= early_dim t then
    invalid_arg "Prior_mapping.late_var: variable out of range";
  if finger < 0 || finger >= t.fingers.(sch) then
    invalid_arg "Prior_mapping.late_var: finger out of range";
  t.offsets.(sch) + finger

let schematic_of_late t v =
  if v < 0 || v >= t.total then
    invalid_arg "Prior_mapping.schematic_of_late: variable out of range";
  (* offsets are sorted; linear scan is fine for the sizes involved,
     but binary search keeps this O(log r) for the big substrates *)
  let lo = ref 0 and hi = ref (early_dim t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.offsets.(mid) <= v then lo := mid else hi := mid - 1
  done;
  (!lo, v - t.offsets.(!lo))

(* Cartesian product of per-variable finger choices, in lexicographic
   finger order so the group layout is deterministic. *)
let map_term t term =
  let n = Array.length term in
  if n = 0 then [ Polybasis.Multi_index.constant ]
  else begin
    let rec expand i acc =
      if i = n then [ List.rev acc ]
      else begin
        let v, d = term.(i) in
        if v >= early_dim t then
          invalid_arg "Prior_mapping.map_term: variable out of range";
        List.concat
          (List.init t.fingers.(v) (fun finger ->
               expand (i + 1) ((late_var t ~sch:v ~finger, d) :: acc)))
      end
    in
    List.map
      (fun pairs -> Polybasis.Multi_index.of_pairs (Array.of_list pairs))
      (expand 0 [])
  end

let group_size t term =
  Array.fold_left (fun acc (v, _) -> acc * t.fingers.(v)) 1 term

let map_model t ~early_basis ~early_coeffs =
  let m = Polybasis.Basis.size early_basis in
  if Array.length early_coeffs <> m then
    invalid_arg "Prior_mapping.map_model: coefficient length mismatch";
  if Polybasis.Basis.dim early_basis <> early_dim t then
    invalid_arg "Prior_mapping.map_model: basis dimension mismatch";
  let late_terms = ref [] and late_coeffs = ref [] in
  for i = m - 1 downto 0 do
    let term = Polybasis.Basis.term early_basis i in
    let group = map_term t term in
    let tm = group_size t term in
    assert (List.length group = tm);
    let beta = early_coeffs.(i) /. sqrt (float_of_int tm) in
    List.iter
      (fun lt ->
        late_terms := lt :: !late_terms;
        late_coeffs := Some beta :: !late_coeffs)
      (List.rev group)
  done;
  let basis = Polybasis.Basis.of_terms ~dim:(late_dim t) !late_terms in
  (basis, Array.of_list !late_coeffs)

let append_missing (basis, coeffs) extra_terms =
  let extended = Polybasis.Basis.extend basis extra_terms in
  let extra = Array.make (List.length extra_terms) None in
  (extended, Array.append coeffs extra)
