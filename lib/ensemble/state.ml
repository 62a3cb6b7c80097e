(* Persistent ensemble state: the member list with per-member log
   prior, accumulated log evidence and scored-point counts — everything
   the weight computation needs, in one small checksummed record.

   Evidence semantics: whenever the membership changes, every member's
   evidence accumulator resets to zero. The log-evidence differences
   that drive the weights are then likelihood ratios over data every
   member was scored on; a freshly added canary competes on equal
   footing from its near-zero prior instead of starting with an
   unpayable deficit against incumbents with a long history. *)

type member = {
  meta : Serving.Artifact.meta;
  log_prior : float;
  log_ev : float;
  count : int;
}

type t = { name : string; occam : float; members : member array }

(* ln 1e-6: a canaried revision starts ~13.8 nats behind an incumbent
   with log prior 0 — visible in the weight vector as ~1e-6, and
   overtaken once its accumulated log-likelihood advantage over the
   incumbent exceeds the gap. *)
let canary_log_prior = Float.log 1e-6

let max_name_len = 160

let create ?(occam = 0.) name =
  if String.length name = 0 then
    invalid_arg "Ensemble.State.create: empty name";
  if String.length name > max_name_len then
    invalid_arg "Ensemble.State.create: name too long";
  if String.contains name '\x00' then
    invalid_arg "Ensemble.State.create: NUL in name";
  if not (Float.is_finite occam) || occam < 0. || occam > 1. then
    invalid_arg "Ensemble.State.create: occam must be in [0, 1]";
  { name; occam; members = [||] }

let mem t meta = Array.exists (fun m -> m.meta = meta) t.members

let find t meta = Array.find_opt (fun m -> m.meta = meta) t.members

let add t meta =
  if mem t meta then
    Error
      (Printf.sprintf "ensemble %s: %s/%s scale=%s seed=%d is already a member"
         t.name meta.Serving.Artifact.circuit meta.Serving.Artifact.metric
         meta.Serving.Artifact.scale meta.Serving.Artifact.seed)
  else begin
    let log_prior = if Array.length t.members = 0 then 0. else canary_log_prior in
    let reset = Array.map (fun m -> { m with log_ev = 0.; count = 0 }) t.members in
    Ok
      {
        t with
        members =
          Array.append reset [| { meta; log_prior; log_ev = 0.; count = 0 } |];
      }
  end

let scores t = Array.map (fun m -> m.log_prior +. m.log_ev) t.members

let weights t = Weights.compute ~occam:t.occam (scores t)

(* Fold one scored batch in: per-member evidence increments (aligned
   with [members]) and per-member point counts. A member that could not
   be scored this round carries (0., 0). *)
let record t increments =
  if Array.length increments <> Array.length t.members then
    invalid_arg "Ensemble.State.record: increment arity mismatch";
  {
    t with
    members =
      Array.mapi
        (fun i m ->
          let delta, points = increments.(i) in
          { m with log_ev = m.log_ev +. delta; count = m.count + points })
        t.members;
  }

let validate t =
  let err msg = Error ("ensemble: " ^ msg) in
  if String.length t.name = 0 then err "empty name"
  else if String.length t.name > max_name_len then err "name too long"
  else if not (Float.is_finite t.occam) || t.occam < 0. || t.occam > 1. then
    err "occam out of range"
  else begin
    let problem = ref None in
    Array.iteri
      (fun i m ->
        if !problem = None then begin
          if not (Float.is_finite m.log_prior) then
            problem := Some (Printf.sprintf "member %d: non-finite log prior" i)
          else if Float.is_nan m.log_ev then
            problem := Some (Printf.sprintf "member %d: NaN log evidence" i)
          else if m.count < 0 then
            problem := Some (Printf.sprintf "member %d: negative count" i)
          else if
            Array.exists (fun m' -> m' != m && m'.meta = m.meta) t.members
          then problem := Some (Printf.sprintf "member %d: duplicate meta" i)
        end)
      t.members;
    match !problem with None -> Ok t | Some msg -> err msg
  end

(* ------------------------------------------------------------------ *)
(* Binary codec: [magic "BMFENS01" | u64 fnv64(payload) | payload] in
   Serving.Codec's envelope, the payload [name | occam | count |
   members], each member its model key then [log_prior | log_ev | count]. *)

module Codec = Serving.Codec

let magic = "BMFENS01"

let to_binary_string t =
  let size = 256 + String.length t.name + (128 * Array.length t.members) in
  Codec.sealed ~magic ~size (fun w ->
      Codec.put_string w t.name;
      Codec.put_float w t.occam;
      Codec.put_int w (Array.length t.members);
      Array.iter
        (fun m ->
          Serving.Artifact.write_meta w m.meta;
          Codec.put_float w m.log_prior;
          Codec.put_float w m.log_ev;
          Codec.put_int w m.count)
        t.members)

let of_binary_string s =
  match
    Codec.unsealed ~magic ~eof:"truncated payload" s (fun rd ->
        let name = Codec.get_string rd in
        let occam = Codec.get_float rd in
        let n = Codec.get_count rd ~per:8 "implausible member count" in
        let members =
          Array.init n (fun _ ->
              let meta = Serving.Artifact.read_meta rd in
              let log_prior = Codec.get_float rd in
              let log_ev = Codec.get_float rd in
              let count = Codec.get_int rd in
              { meta; log_prior; log_ev; count })
        in
        { name; occam; members })
  with
  | Ok t -> validate t
  | Error e -> Error ("ensemble: " ^ e)

(* ------------------------------------------------------------------ *)
(* JSON view (ensemble_stats, /health, repro ensemble show). [resolve]
   optionally maps a member meta to its (rev, dim) — the serving side
   resolves through its model cache, the offline CLI through the
   store. Non-finite evidence is string-encoded ({!Serving.Json.of_float}). *)

let to_json ?(resolve = fun (_ : Serving.Artifact.meta) -> None) t =
  let ws = weights t in
  Serving.Json.Obj
    [
      ("name", Serving.Json.Str t.name);
      ("occam", Serving.Json.of_float t.occam);
      ( "members",
        Serving.Json.Arr
          (Array.to_list
             (Array.mapi
                (fun i m ->
                  let base =
                    [
                      ("circuit", Serving.Json.Str m.meta.Serving.Artifact.circuit);
                      ("metric", Serving.Json.Str m.meta.Serving.Artifact.metric);
                      ("scale", Serving.Json.Str m.meta.Serving.Artifact.scale);
                      ( "seed",
                        Serving.Json.Num
                          (float_of_int m.meta.Serving.Artifact.seed) );
                      ("log_prior", Serving.Json.of_float m.log_prior);
                      ("log_evidence", Serving.Json.of_float m.log_ev);
                      ("points", Serving.Json.Num (float_of_int m.count));
                      ("weight", Serving.Json.of_float ws.(i));
                    ]
                  in
                  let extra =
                    match resolve m.meta with
                    | None -> []
                    | Some (rev, dim) ->
                        [
                          ("rev", Serving.Json.Num (float_of_int rev));
                          ("dim", Serving.Json.Num (float_of_int dim));
                        ]
                  in
                  Serving.Json.Obj (base @ extra))
                t.members)) );
    ]
