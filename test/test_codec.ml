(* Tests for Serving.Codec, the one binary codec, and QCheck properties
   of every format written with it: model artifacts, journal entries,
   [.bmfe] ensemble state and wire frames. Per format:
   - decode∘encode = id on generated values;
   - every truncation of a valid encoding decodes to [Error];
   - every single-byte mutation decodes to a result, never an
     exception. The checksummed formats are mutated in the payload and
     sealed again, so the field decoders see the mutation rather than
     the checksum. A mutation inside a float or a flag byte can be
     another valid value, so [Ok] is a legal outcome.
   Every property runs from a fixed seed. *)

module C = Serving.Codec
module W = Server.Wire

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let bits = Int64.bits_of_float

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let short f =
  match f () with
  | _ -> false
  | exception C.Short _ -> true

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

let test_primitives_roundtrip () =
  let m = Linalg.Mat.init 3 4 (fun i j -> float_of_int ((i * 4) + j) -. 5.5) in
  let l = Linalg.Mat.init 3 3 (fun i j -> if j <= i then float_of_int (i + j) +. 0.25 else 0.) in
  (* a 1-byte start forces the writer to grow many times *)
  let w = C.writer 1 in
  C.put_u8 w 200;
  C.put_bool w true;
  C.put_int32 w (-5);
  C.put_int w max_int;
  C.put_float w (-0.);
  C.put_string w "h\x00llo";
  C.put_floats w [| 1.; nan; neg_infinity |];
  C.put_mat w m;
  C.put_lower w l;
  C.put_u8 w 7;
  let s = C.contents w in
  check_int "length" (String.length s) (C.length w);
  let rd = C.reader s in
  check_int "u8" 200 (C.get_u8 rd);
  check_bool "bool" true (C.get_bool rd);
  check_int "int32" (-5) (C.get_int32 rd);
  check_int "int" max_int (C.get_int rd);
  check_bool "-0. keeps its sign bit" true (bits (-0.) = bits (C.get_float rd));
  check_string "string" "h\x00llo" (C.get_string rd);
  check_bool "floats, bit for bit" true
    (same_floats [| 1.; nan; neg_infinity |] (C.get_floats rd "f"));
  check_bool "matrix" true (Linalg.Mat.equal m (C.get_mat rd "m" 3 4));
  check_bool "lower triangle" true (Linalg.Mat.equal l (C.get_lower rd 3));
  check_bool "parse refuses unread bytes" true
    (C.parse s C.get_u8 = Error "trailing bytes");
  check_bool "parse turns Short into Error" true
    (C.parse ~eof:"cut" (String.sub s 0 3) C.get_int = Error "cut");
  check_bool "parse of a whole read" true
    (C.parse (String.sub s 0 2) (fun rd ->
         let u8 = C.get_u8 rd in
         (u8, C.get_bool rd))
    = Ok (200, true));
  (* patching and hashing what was written *)
  let w = C.writer 8 in
  let at = C.skip w 4 in
  let sum = C.skip w 8 in
  String.iter (fun c -> C.put_u8 w (Char.code c)) "foobar";
  C.set_int32 w at 6;
  C.set_int64 w sum Int64.min_int;
  check_string "fnv64_from hashes from the offset" "85944171f73967e8"
    (Printf.sprintf "%016Lx" (C.fnv64_from w 12));
  let rd = C.reader (C.contents w) in
  check_int "patched length" 6 (C.get_int32 rd);
  check_bool "patched int64" true (Int64.equal Int64.min_int (C.get_int64 rd));
  (* an i64 outside the int range is corrupt, not another number *)
  check_bool "integer out of range" true
    (short (fun () -> C.get_int (C.reader (String.sub (C.contents w) 4 8))))

let test_reader_bounds () =
  let claim n =
    let w = C.writer 16 in
    C.put_int w n;
    C.put_int w 0;
    C.contents w
  in
  (* a claimed length near max_int must not wrap the bound *)
  let huge = claim max_int in
  check_bool "string length max_int" true
    (short (fun () -> C.get_string (C.reader huge)));
  check_bool "float count max_int" true
    (short (fun () -> C.get_floats (C.reader huge) "f"));
  check_bool "element count max_int" true
    (short (fun () -> C.get_count (C.reader huge) ~per:1 "count"));
  check_bool "negative string length" true
    (short (fun () -> C.get_string (C.reader (claim (-1)))));
  (* matrix claims are bounded before any allocation or loop *)
  let rd () = C.reader (String.make 64 '\000') in
  check_bool "10^9 rows of zero columns" true
    (short (fun () -> C.get_mat (rd ()) "m" 1_000_000_000 0));
  check_bool "65 rows of zero columns in 64 bytes" true
    (short (fun () -> C.get_mat (rd ()) "m" 65 0));
  check_int "64 rows of zero columns fit" 64
    (Linalg.Mat.rows (C.get_mat (rd ()) "m" 64 0));
  check_bool "rows x cols overflowing int" true
    (short (fun () -> C.get_mat (rd ()) "m" 2 (max_int / 2)));
  check_bool "9 floats in 64 bytes" true
    (short (fun () -> C.get_mat (rd ()) "m" 3 3));
  check_bool "lower triangle of max_int / 2" true
    (short (fun () -> C.get_lower (rd ()) (max_int / 2)));
  check_bool "lower triangle of 4 (10 floats) in 64 bytes" true
    (short (fun () -> C.get_lower (rd ()) 4));
  check_int "lower triangle of 3 (6 floats) fits" 3
    (Linalg.Mat.rows (C.get_lower (rd ()) 3));
  (* a reader over a range stops at the range, not the string *)
  let sub = C.reader ~eof:"cut" ~off:8 ~len:8 (String.make 32 '\001') in
  ignore (C.get_int sub);
  (match C.get_u8 sub with
  | _ -> Alcotest.fail "read past the range"
  | exception C.Short msg -> check_string "the reader's own eof" "cut" msg);
  check_bool "range outside the string refused" true
    (try
       ignore (C.reader ~off:30 ~len:8 (String.make 32 ' '));
       false
     with Invalid_argument _ -> true)

let test_envelope () =
  let s = C.sealed ~magic:"MAGIC001" ~size:0 (fun w -> C.put_string w "payload") in
  (match C.unsealed ~magic:"MAGIC001" s C.get_string with
  | Ok p -> check_string "payload" "payload" p
  | Error e -> Alcotest.failf "unsealed: %s" e);
  let expect what s' =
    match C.unsealed ~magic:"MAGIC001" s' C.get_string with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e -> check_string what what e
  in
  expect "truncated file" (String.sub s 0 15);
  expect "bad magic" ("X" ^ String.sub s 1 (String.length s - 1));
  let b = Bytes.of_string s in
  Bytes.set b 20 'Z';
  expect "checksum mismatch (corrupt file)" (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Fuzz drivers                                                        *)

let fail = QCheck.Test.fail_reportf

let xors = [ 0x01; 0x80; 0xff ]

let flip s i x =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
  Bytes.to_string b

(* Every strict prefix of [s] decodes to [Error]. *)
let truncations_fail decode s =
  for n = 0 to String.length s - 1 do
    match decode (String.sub s 0 n) with
    | Error _ -> ()
    | Ok _ -> fail "prefix of %d/%d bytes decoded" n (String.length s)
    | exception e ->
        fail "prefix of %d bytes raised %s" n (Printexc.to_string e)
  done;
  true

(* Every single-byte mutation of [s] at [from] or later, passed through
   [seal], decodes to a result. *)
let mutations_contained ?(seal = Fun.id) ~from decode s =
  for i = from to String.length s - 1 do
    List.iter
      (fun x ->
        match decode (seal (flip s i x)) with
        | Ok _ | Error _ -> ()
        | exception e ->
            fail "byte %d xor %#x raised %s" i x (Printexc.to_string e))
      xors
  done;
  true

(* Mutations of the bytes before [upto] (magic, length, checksum) that
   are not sealed again must all be refused. *)
let header_mutations_fail ~upto decode s =
  for i = 0 to upto - 1 do
    List.iter
      (fun x ->
        match decode (flip s i x) with
        | Error _ -> ()
        | Ok _ -> fail "header byte %d xor %#x accepted" i x
        | exception e ->
            fail "header byte %d xor %#x raised %s" i x (Printexc.to_string e))
      xors
  done;
  true

(* [magic | u64 fnv64(payload) | payload] and the journal's
   [u64 len | u64 fnv64(payload) | payload]: the checksum sits at byte 8
   and covers everything from byte 16. *)
let reseal s =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b 8 (C.fnv64 s 16 (String.length s - 16));
  Bytes.to_string b

let prop ~seed ~count ~name arb law =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~name ~count arb law)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

module Gens = struct
  open QCheck.Gen

let gen_text = string_size ~gen:printable (int_range 0 10)

let gen_meta =
  map
    (fun (circuit, metric, scale, seed) ->
      { Serving.Artifact.circuit; metric; scale; seed })
    (quad gen_text gen_text gen_text (int_range 0 1_000_000))

let gen_finite =
  oneof
    [
      float_range (-1e6) 1e6;
      oneofl [ 0.; -0.; 1e-300; -1e300; Float.epsilon ];
    ]

let gen_floats n = array_repeat n gen_finite

let gen_mat rows cols =
  map (fun a -> Linalg.Mat.of_flat ~rows ~cols a) (gen_floats (rows * cols))

let gen_artifact =
  let* k = int_range 0 5 in
  let* m = int_range 1 6 in
  let* basis_dim = int_range 1 4 in
  let gen_term =
    map Polybasis.Multi_index.of_pairs
      (list_size (int_range 0 3) (pair (int_range 0 (basis_dim - 1)) (int_range 0 3)))
  in
  let* terms = array_repeat m gen_term in
  let* kind = oneofl [ Bmf.Prior.Zero_mean; Bmf.Prior.Nonzero_mean ] in
  let* means = gen_floats m in
  let* weights = array_repeat m (float_range 1e-3 1e3) in
  let* informed = array_repeat m bool in
  let* coeffs = gen_floats m in
  let* g = gen_mat k m in
  let* f = gen_floats k in
  let* lower = gen_floats (k * k) in
  let* meta = gen_meta in
  let* rev = int_range 0 100 in
  let* hyper = float_range 1e-6 1e3 in
  let* cv_error = oneofl [ nan; 0.; 0.125 ] in
  let+ sigma0_sq = float_range 1e-300 1e3 in
  {
    Serving.Artifact.meta;
    rev;
    hyper;
    cv_error;
    sigma0_sq;
    basis_dim;
    terms;
    prior = Bmf.Prior.of_raw ~kind ~means ~weights ~informed;
    coeffs;
    g;
    f;
    chol = Linalg.Mat.init k k (fun i j -> if j <= i then lower.((i * k) + j) else 0.);
  }

let gen_entry =
  let* rows = int_range 0 4 in
  let* cols = int_range 0 5 in
  let* meta = gen_meta in
  let* base_rev = int_range 0 1000 in
  let* xs = gen_mat rows cols in
  let+ f = gen_floats rows in
  { Serving.Journal.meta; base_rev; xs; f }

let gen_state =
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 20) in
  let* occam = oneof [ float_range 0. 1.; oneofl [ 0.; 1. ] ] in
  let* n = int_range 0 4 in
  let+ members =
    array_repeat n
      (quad gen_meta gen_finite
         (oneof [ gen_finite; return neg_infinity ])
         (int_range 0 10_000))
  in
  {
    Ensemble.State.name;
    occam;
    members =
      Array.mapi
        (fun i (meta, log_prior, log_ev, count) ->
          (* distinct keys: validate refuses duplicate members *)
          { Ensemble.State.meta = { meta with seed = i }; log_prior; log_ev; count })
        members;
  }

let gen_points =
  let* rows = int_range 0 4 in
  let* cols = int_range 1 5 in
  gen_mat rows cols

let gen_request =
  oneof
    [
      oneofl
        [ W.Ping_req; W.List_models_req; W.Stats_req; W.Promote_req; W.Events_req ];
      map3
        (fun meta points with_std -> W.Predict_req { meta; points; with_std })
        gen_meta gen_points bool;
      (let* rows = int_range 0 4 in
       let* cols = int_range 0 5 in
       map3
         (fun meta xs f -> W.Update_req { meta; xs; f })
         gen_meta (gen_mat rows cols) (gen_floats rows));
      map
        (fun vector -> W.Subscribe_req { vector })
        (list_size (int_range 0 3) (pair gen_meta (int_range 0 50)));
      map (fun seq -> W.Repl_ack_req { seq }) (int_range 0 1_000_000);
      map2
        (fun name points -> W.Predict_ensemble_req { name = "e" ^ name; points })
        gen_text gen_points;
      map (fun name -> W.Ensemble_stats_req { name }) gen_text;
    ]

(* A response, and the opcode whose reply it is. *)
let gen_response =
  let info =
    map
      (fun (meta, (rev, samples, terms), (dim, file, bytes)) ->
        { W.meta; rev; samples; terms; dim; file; bytes })
      (triple gen_meta
         (triple (int_range 0 9) (int_range 0 999) (int_range 1 999))
         (triple (int_range 1 99) gen_text (int_range 0 1_000_000)))
  in
  oneof
    [
      return (W.Pong, W.Ping);
      (let* n = int_range 0 5 in
       map2
         (fun means stds -> (W.Predicted { means; stds }, W.Predict_var))
         (gen_floats n) (opt (gen_floats n)));
      map2
        (fun rev samples -> (W.Updated { rev; samples }, W.Update))
        (int_range 0 99) (int_range 0 9999);
      map (fun l -> (W.Models l, W.List_models)) (list_size (int_range 0 3) info);
      map
        (fun ((uptime_s, requests, recovered_updates), (role, journal_seq, shards), metrics_json) ->
          ( W.Stats_payload
              { uptime_s; requests; recovered_updates; role; journal_seq; shards; metrics_json },
            W.Stats ))
        (triple
           (triple gen_finite gen_finite gen_finite)
           (triple gen_text (int_range 0 99) (int_range 1 8))
           gen_text);
      map2
        (fun was_follower journal_seq ->
          (W.Promoted { was_follower; journal_seq }, W.Promote))
        bool (int_range 0 99);
      map (fun json -> (W.Events_payload { json }, W.Events)) gen_text;
      (let* n = int_range 0 5 in
       map3
         (fun means within between ->
           (W.Ensemble_predicted { means; within; between }, W.Predict_ensemble))
         (gen_floats n) (gen_floats n) (gen_floats n));
      map (fun json -> (W.Ensemble_stats_payload { json }, W.Ensemble_stats)) gen_text;
      map2
        (fun code message -> (W.Error { code; message }, W.Ping))
        (oneofl
           W.
             [
               Busy;
               Deadline_exceeded;
               Model_not_found;
               Bad_request;
               Internal;
               Shutting_down;
               Protocol;
               Not_leader;
             ])
        gen_text;
    ]

let gen_push =
  oneof
    [
      (let* data = gen_text in
       let* offset = int_range 0 100 in
       let* slack = int_range 0 100 in
       map2
         (fun meta rev ->
           W.Snapshot_chunk
             { meta; rev; total = offset + String.length data + slack; offset; data })
         gen_meta (int_range 0 50));
      map3
        (fun seq ts entry -> W.Journal_entry { seq; ts; entry })
        (int_range 0 999) gen_finite gen_text;
      map3
        (fun seq snapshots ts -> W.Repl_status { seq; snapshots; ts })
        (int_range 0 999) (int_range 0 9) gen_finite;
      map2 (fun seq ts -> W.Repl_heartbeat { seq; ts }) (int_range 0 999) gen_finite;
    ]

let gen_trace = opt (pair (int_range 0 max_int) (int_range 0 max_int))
end

open Gens

(* ------------------------------------------------------------------ *)
(* Artifact                                                            *)

let artifact_bytes = Serving.Artifact.to_string Serving.Artifact.Binary

let same_artifact (a : Serving.Artifact.t) (b : Serving.Artifact.t) =
  a.meta = b.meta && a.rev = b.rev
  && same_floats [| a.hyper; a.cv_error; a.sigma0_sq |] [| b.hyper; b.cv_error; b.sigma0_sq |]
  && a.basis_dim = b.basis_dim && a.terms = b.terms
  && a.prior.Bmf.Prior.kind = b.prior.Bmf.Prior.kind
  && same_floats a.prior.Bmf.Prior.means b.prior.Bmf.Prior.means
  && same_floats a.prior.Bmf.Prior.weights b.prior.Bmf.Prior.weights
  && a.prior.Bmf.Prior.informed = b.prior.Bmf.Prior.informed
  && same_floats a.coeffs b.coeffs
  && same_floats (Linalg.Mat.to_flat a.g) (Linalg.Mat.to_flat b.g)
  && Linalg.Mat.dims a.g = Linalg.Mat.dims b.g
  && same_floats a.f b.f
  && same_floats (Linalg.Mat.to_flat a.chol) (Linalg.Mat.to_flat b.chol)

let arb_artifact = QCheck.make gen_artifact

let artifact_props =
  [
    prop ~seed:101 ~count:200 ~name:"artifact: decode . encode = id" arb_artifact
      (fun a ->
        match Serving.Artifact.of_string (artifact_bytes a) with
        | Ok b -> same_artifact a b && artifact_bytes b = artifact_bytes a
        | Error e -> fail "decode: %s" e);
    prop ~seed:102 ~count:30 ~name:"artifact: truncations refused" arb_artifact
      (fun a -> truncations_fail Serving.Artifact.of_string (artifact_bytes a));
    prop ~seed:103 ~count:30 ~name:"artifact: mutations contained" arb_artifact
      (fun a ->
        let s = artifact_bytes a in
        header_mutations_fail ~upto:16 Serving.Artifact.of_string s
        && mutations_contained ~seal:reseal ~from:16 Serving.Artifact.of_string s);
  ]

(* ------------------------------------------------------------------ *)
(* Journal entry                                                       *)

let same_entry (a : Serving.Journal.entry) (b : Serving.Journal.entry) =
  a.meta = b.meta && a.base_rev = b.base_rev
  && Linalg.Mat.dims a.xs = Linalg.Mat.dims b.xs
  && same_floats (Linalg.Mat.to_flat a.xs) (Linalg.Mat.to_flat b.xs)
  && same_floats a.f b.f

let arb_entry = QCheck.make gen_entry

let journal_file entry_bytes = "BMFJRNL1" ^ entry_bytes

let journal_props =
  [
    prop ~seed:201 ~count:300 ~name:"journal entry: decode . encode = id" arb_entry
      (fun e ->
        let s = Serving.Journal.encode_entry e in
        (match Serving.Journal.decode_entry s with
        | Ok b -> same_entry e b
        | Error err -> fail "decode_entry: %s" err)
        &&
        match Serving.Journal.decode_entries (journal_file (s ^ s)) with
        | [ b; c ], None -> same_entry e b && same_entry e c
        | _ -> fail "decode_entries did not return both entries");
    prop ~seed:202 ~count:100 ~name:"journal entry: truncations refused" arb_entry
      (fun e ->
        let s = Serving.Journal.encode_entry e in
        truncations_fail Serving.Journal.decode_entry s
        && truncations_fail
             (fun t ->
               (* a torn tail keeps no entry and names why *)
               match Serving.Journal.decode_entries (journal_file t) with
               | [], Some why -> Error why
               | [], None when t = "" -> Error "empty"
               | _ -> Ok ())
             s);
    prop ~seed:203 ~count:100 ~name:"journal entry: mutations contained" arb_entry
      (fun e ->
        let s = Serving.Journal.encode_entry e in
        let scan t = Ok (Serving.Journal.decode_entries (journal_file t)) in
        header_mutations_fail ~upto:16 Serving.Journal.decode_entry s
        && mutations_contained ~seal:reseal ~from:16 Serving.Journal.decode_entry s
        && mutations_contained ~seal:reseal ~from:0 scan s);
  ]

(* ------------------------------------------------------------------ *)
(* .bmfe                                                               *)

let arb_state = QCheck.make gen_state

let state_props =
  [
    prop ~seed:301 ~count:300 ~name:".bmfe: decode . encode = id" arb_state
      (fun t ->
        let s = Ensemble.State.to_binary_string t in
        match Ensemble.State.of_binary_string s with
        | Ok t' -> t' = t && Ensemble.State.to_binary_string t' = s
        | Error e -> fail "decode: %s" e);
    prop ~seed:302 ~count:100 ~name:".bmfe: truncations refused" arb_state
      (fun t ->
        truncations_fail Ensemble.State.of_binary_string
          (Ensemble.State.to_binary_string t));
    prop ~seed:303 ~count:100 ~name:".bmfe: mutations contained" arb_state
      (fun t ->
        let s = Ensemble.State.to_binary_string t in
        header_mutations_fail ~upto:16 Ensemble.State.of_binary_string s
        && mutations_contained ~seal:reseal ~from:16 Ensemble.State.of_binary_string s);
  ]

(* ------------------------------------------------------------------ *)
(* Wire frames                                                         *)

let frame_of s =
  match W.peek s ~off:0 with
  | `Frame (f, next) when next = String.length s -> f
  | `Frame _ -> fail "frame did not consume the string"
  | `Need n -> fail "incomplete frame: %d more bytes" n
  | `Bad msg -> fail "bad frame: %s" msg

(* Truncating the whole frame leaves [peek] waiting; truncating or
   mutating the body reaches [decode]; mutating the header reaches
   [peek] and, through it, [decode]. *)
let frame_props ~decode s =
  let f = frame_of s in
  let body b = decode { f with W.body = b } in
  for n = 0 to String.length s - 1 do
    match W.peek (String.sub s 0 n) ~off:0 with
    | `Need _ -> ()
    | _ -> fail "frame prefix of %d bytes not incomplete" n
  done;
  let peek_decode t =
    match W.peek t ~off:0 with
    | `Frame (f', _) -> Result.map ignore (decode f')
    | `Need _ | `Bad _ -> Error "no frame"
  in
  truncations_fail body f.W.body && mutations_contained ~from:0 peek_decode s

let wire_props =
  [
    prop ~seed:401 ~count:500 ~name:"wire request: decode . encode = id"
      (QCheck.make (QCheck.Gen.pair gen_request gen_trace))
      (fun (req, trace) ->
        let s = W.encode_request ~id:7 ~deadline_ms:9 ?trace req in
        let f = frame_of s in
        f.W.frame_version = (if trace = None || trace = Some (0, 0) then 1 else 2)
        && (match trace with
           | Some (t, sp) -> f.W.frame_trace = t && f.W.frame_span = sp
           | None -> f.W.frame_trace = 0)
        &&
        match W.decode_request f with
        | Ok req' -> req' = req
        | Error e -> fail "decode_request: %s" e);
    prop ~seed:402 ~count:200 ~name:"wire request: truncations and mutations"
      (QCheck.make (QCheck.Gen.pair gen_request gen_trace))
      (fun (req, trace) ->
        frame_props ~decode:W.decode_request
          (W.encode_request ~id:7 ~deadline_ms:9 ?trace req));
    prop ~seed:403 ~count:500 ~name:"wire response: decode . encode = id"
      (QCheck.make gen_response)
      (fun (resp, expect) ->
        match W.decode_response ~expect (frame_of (W.encode_response ~id:7 resp)) with
        | Ok resp' -> resp' = resp
        | Error e -> fail "decode_response: %s" e);
    prop ~seed:404 ~count:200 ~name:"wire response: truncations and mutations"
      (QCheck.make gen_response)
      (fun (resp, expect) ->
        frame_props ~decode:(W.decode_response ~expect) (W.encode_response ~id:7 resp));
    prop ~seed:405 ~count:500 ~name:"wire push: decode . encode = id"
      (QCheck.make (QCheck.Gen.pair gen_push gen_trace))
      (fun (p, trace) ->
        match W.decode_push (frame_of (W.encode_push ?trace p)) with
        | Ok p' -> p' = p
        | Error e -> fail "decode_push: %s" e);
    prop ~seed:406 ~count:200 ~name:"wire push: truncations and mutations"
      (QCheck.make (QCheck.Gen.pair gen_push gen_trace))
      (fun (p, trace) -> frame_props ~decode:W.decode_push (W.encode_push ?trace p));
  ]

let () =
  Alcotest.run "codec"
    [
      ( "primitives",
        [
          Alcotest.test_case "round-trip" `Quick test_primitives_roundtrip;
          Alcotest.test_case "reader bounds" `Quick test_reader_bounds;
          Alcotest.test_case "envelope" `Quick test_envelope;
        ] );
      ("artifact", artifact_props);
      ("journal", journal_props);
      ("bmfe", state_props);
      ("wire", wire_props);
    ]
