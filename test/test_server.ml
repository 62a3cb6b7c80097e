(* Tests for the prediction daemon: wire-protocol codec round-trips,
   malformed-frame fault injection, and end-to-end socket sessions
   proving the daemon's micro-batched answers are bit-identical to
   direct Serving.Predictor calls at any -j. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let rng = Stats.Rng.create 20130614

(* Same small fitted problem as test_serving: a nonzero-mean prior over
   a linear basis, enough structure to exercise the variance path. *)
type synth = {
  basis : Polybasis.Basis.t;
  prior : Bmf.Prior.t;
  hyper : float;
  g : Linalg.Mat.t;
  f : Linalg.Vec.t;
  truth : Linalg.Vec.t;
}

let make_synth ?(k = 40) ?(r = 25) ?(noise = 0.01) () =
  let basis = Polybasis.Basis.linear r in
  let m = Polybasis.Basis.size basis in
  let truth =
    Array.init m (fun i -> if i = 0 then 3. else 1. /. float_of_int (i + 1))
  in
  let early =
    Array.map
      (fun c -> Some (c *. (1. +. (0.15 *. Stats.Rng.gaussian rng))))
      truth
  in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let f =
    Array.init k (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) truth
        +. (noise *. Stats.Rng.gaussian rng))
  in
  let prior = Bmf.Prior.nonzero_mean early in
  let hyper, _ = Bmf.Hyper.select ~rng ~g ~f ~prior () in
  { basis; prior; hyper; g; f; truth }

let meta =
  { Serving.Artifact.circuit = "test"; metric = "m"; scale = "quick"; seed = 7 }

let artifact_of (s : synth) =
  Serving.Artifact.of_fit ~meta ~basis:s.basis ~prior:s.prior ~hyper:s.hyper
    ~g:s.g ~f:s.f ()

let queries (s : synth) n =
  let r = Polybasis.Basis.dim s.basis in
  Linalg.Mat.of_rows (List.init n (fun _ -> Stats.Rng.gaussian_vec rng r))

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-server-test-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists root then rm root;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists root then rm root)
    (fun () -> f root)

(* ------------------------------------------------------------------ *)
(* Wire codec: round-trips                                             *)

let frame_of s =
  match Server.Wire.peek s ~off:0 with
  | `Frame (f, next) ->
      check_int "frame consumed the whole string" (String.length s) next;
      f
  | `Need n -> Alcotest.failf "incomplete frame: need %d more bytes" n
  | `Bad msg -> Alcotest.failf "bad frame: %s" msg

let mats_equal a b = Linalg.Mat.equal a b

let roundtrip_request ?deadline_ms req =
  let s = Server.Wire.encode_request ~id:42 ?deadline_ms req in
  let f = frame_of s in
  check_int "request id echoed" 42 f.Server.Wire.frame_id;
  check_int "deadline"
    (Option.value deadline_ms ~default:0)
    f.Server.Wire.frame_deadline_ms;
  match Server.Wire.decode_request f with
  | Error e -> Alcotest.failf "decode_request failed: %s" e
  | Ok got -> got

let test_request_roundtrips () =
  let s = make_synth ~k:10 ~r:6 () in
  let points = queries s 5 in
  (match roundtrip_request Server.Wire.Ping_req with
  | Server.Wire.Ping_req -> ()
  | _ -> Alcotest.fail "ping round-trip");
  (match roundtrip_request Server.Wire.List_models_req with
  | Server.Wire.List_models_req -> ()
  | _ -> Alcotest.fail "list_models round-trip");
  (match roundtrip_request Server.Wire.Stats_req with
  | Server.Wire.Stats_req -> ()
  | _ -> Alcotest.fail "stats round-trip");
  List.iter
    (fun with_std ->
      match
        roundtrip_request ~deadline_ms:250
          (Server.Wire.Predict_req { meta; points; with_std })
      with
      | Server.Wire.Predict_req p ->
          check_bool "meta" true (p.meta = meta);
          check_bool "with_std" with_std p.with_std;
          check_bool "points bit-identical" true (mats_equal points p.points)
      | _ -> Alcotest.fail "predict round-trip")
    [ false; true ];
  let xs = queries s 4 in
  let fv = Array.init 4 (fun i -> 0.25 *. float_of_int i) in
  match roundtrip_request (Server.Wire.Update_req { meta; xs; f = fv }) with
  | Server.Wire.Update_req u ->
      check_bool "meta" true (u.meta = meta);
      check_bool "xs bit-identical" true (mats_equal xs u.xs);
      check_bool "f bit-identical" true (Array.for_all2 Float.equal fv u.f)
  | _ -> Alcotest.fail "update round-trip"

let roundtrip_response ~expect resp =
  let s = Server.Wire.encode_response ~id:7 resp in
  let f = frame_of s in
  check_int "response id echoed" 7 f.Server.Wire.frame_id;
  match Server.Wire.decode_response ~expect f with
  | Error e -> Alcotest.failf "decode_response failed: %s" e
  | Ok got -> got

let test_response_roundtrips () =
  (match roundtrip_response ~expect:Server.Wire.Ping Server.Wire.Pong with
  | Server.Wire.Pong -> ()
  | _ -> Alcotest.fail "pong round-trip");
  let means = Array.init 9 (fun i -> exp (float_of_int i /. 3.)) in
  let stds = Array.init 9 (fun i -> 1e-3 *. float_of_int (i + 1)) in
  (match
     roundtrip_response ~expect:Server.Wire.Predict
       (Server.Wire.Predicted { means; stds = None })
   with
  | Server.Wire.Predicted { means = m; stds = None } ->
      check_bool "means bit-identical" true (Array.for_all2 Float.equal means m)
  | _ -> Alcotest.fail "predicted round-trip");
  (match
     roundtrip_response ~expect:Server.Wire.Predict_var
       (Server.Wire.Predicted { means; stds = Some stds })
   with
  | Server.Wire.Predicted { means = m; stds = Some sd } ->
      check_bool "means bit-identical" true
        (Array.for_all2 Float.equal means m);
      check_bool "stds bit-identical" true (Array.for_all2 Float.equal stds sd)
  | _ -> Alcotest.fail "predicted+stds round-trip");
  (match
     roundtrip_response ~expect:Server.Wire.Update
       (Server.Wire.Updated { rev = 3; samples = 85 })
   with
  | Server.Wire.Updated { rev = 3; samples = 85 } -> ()
  | _ -> Alcotest.fail "updated round-trip");
  let info =
    {
      Server.Wire.meta;
      rev = 2;
      samples = 60;
      terms = 141;
      dim = 140;
      file = "test__m__quick__s7.bmfa";
      bytes = 12345;
    }
  in
  (match
     roundtrip_response ~expect:Server.Wire.List_models
       (Server.Wire.Models [ info ])
   with
  | Server.Wire.Models [ got ] -> check_bool "model_info" true (got = info)
  | _ -> Alcotest.fail "models round-trip");
  (match
     roundtrip_response ~expect:Server.Wire.Stats
       (Server.Wire.Stats_payload
          {
            uptime_s = 1.5;
            requests = 42.;
            recovered_updates = 3.;
            role = "follower";
            journal_seq = 17;
            shards = 4;
            metrics_json = "{\"a\":1}";
          })
   with
  | Server.Wire.Stats_payload p ->
      check_bool "uptime" true (Float.equal 1.5 p.uptime_s);
      check_bool "requests" true (Float.equal 42. p.requests);
      check_bool "recovered" true (Float.equal 3. p.recovered_updates);
      check_string "role" "follower" p.role;
      check_int "journal_seq" 17 p.journal_seq;
      check_int "shards" 4 p.shards;
      check_string "metrics json" "{\"a\":1}" p.metrics_json
  | _ -> Alcotest.fail "stats round-trip");
  List.iter
    (fun code ->
      match
        roundtrip_response ~expect:Server.Wire.Predict
          (Server.Wire.Error { code; message = "because" })
      with
      | Server.Wire.Error e ->
          check_bool "code" true (e.Server.Wire.code = code);
          check_string "message" "because" e.Server.Wire.message
      | _ -> Alcotest.fail "error round-trip")
    [
      Server.Wire.Busy;
      Server.Wire.Deadline_exceeded;
      Server.Wire.Model_not_found;
      Server.Wire.Bad_request;
      Server.Wire.Internal;
      Server.Wire.Shutting_down;
      Server.Wire.Protocol;
    ]

(* ------------------------------------------------------------------ *)
(* Wire codec: fault injection                                         *)

let test_truncated_frames_need_more () =
  let full = Server.Wire.encode_request ~id:1 Server.Wire.Ping_req in
  for cut = 0 to String.length full - 1 do
    match Server.Wire.peek (String.sub full 0 cut) ~off:0 with
    | `Need n -> check_bool "positive need" true (n > 0)
    | `Frame _ -> Alcotest.failf "truncation at %d produced a frame" cut
    | `Bad msg -> Alcotest.failf "truncation at %d misread as bad: %s" cut msg
  done;
  (* two concatenated frames parse back-to-back *)
  let s = full ^ Server.Wire.encode_request ~id:2 Server.Wire.Stats_req in
  match Server.Wire.peek s ~off:0 with
  | `Frame (f1, next) -> (
      check_int "first id" 1 f1.Server.Wire.frame_id;
      match Server.Wire.peek s ~off:next with
      | `Frame (f2, next2) ->
          check_int "second id" 2 f2.Server.Wire.frame_id;
          check_int "stream fully consumed" (String.length s) next2
      | _ -> Alcotest.fail "second frame did not parse")
  | _ -> Alcotest.fail "first frame did not parse"

let test_bad_version_rejected () =
  let full = Server.Wire.encode_request ~id:1 Server.Wire.Ping_req in
  let buf = Bytes.of_string full in
  Bytes.set buf 4 '\xee' (* the version byte, right after the u32 length *);
  match Server.Wire.peek (Bytes.to_string buf) ~off:0 with
  | `Bad _ -> ()
  | `Frame _ -> Alcotest.fail "wrong protocol version accepted"
  | `Need _ -> Alcotest.fail "wrong version misread as incomplete"

let test_oversized_frame_rejected () =
  (* an advertised length beyond max_frame_len must be refused before
     any buffering proportional to it *)
  let buf = Bytes.make 8 '\x00' in
  Bytes.set_int32_le buf 0 (Int32.of_int (Server.Wire.max_frame_len + 1));
  Bytes.set buf 4 '\x01';
  match Server.Wire.peek (Bytes.to_string buf) ~off:0 with
  | `Bad msg ->
      check_bool "mentions the length" true
        (try
           ignore (Str.search_forward (Str.regexp_string "length") msg 0);
           true
         with Not_found -> false)
  | `Frame _ | `Need _ -> Alcotest.fail "oversized frame not rejected"

let test_garbage_bodies_rejected () =
  let s = make_synth ~k:10 ~r:6 () in
  let good =
    frame_of
      (Server.Wire.encode_request ~id:9
         (Server.Wire.Predict_req
            { meta; points = queries s 3; with_std = false }))
  in
  (* a structurally valid frame whose body is cut mid-field must decode
     to Error, never raise or return junk *)
  List.iter
    (fun len ->
      let mangled =
        { good with Server.Wire.body = String.sub good.Server.Wire.body 0 len }
      in
      match Server.Wire.decode_request mangled with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "body truncated to %d decoded" len)
    [ 0; 1; 3; String.length good.Server.Wire.body / 2 ];
  let noise =
    { good with Server.Wire.body = String.make 64 '\xff' }
  in
  (match Server.Wire.decode_request noise with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage request body decoded");
  (* unknown opcode byte *)
  let unknown = { good with Server.Wire.frame_kind = 99 } in
  (match Server.Wire.decode_request unknown with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown opcode decoded");
  match
    Server.Wire.decode_response ~expect:Server.Wire.Predict
      { noise with Server.Wire.frame_kind = 0 }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage response body decoded"

let test_overflow_length_rejected () =
  (* a string length field near max_int must not wrap the bounds check
     in [take] into an uncaught Invalid_argument — it decodes to Error *)
  let b = Buffer.create 8 in
  Buffer.add_int64_le b 0x3FFFFFFFFFFFFFFFL;
  let f =
    {
      Server.Wire.frame_version = 1;
      frame_kind = 2 (* predict *);
      frame_id = 1;
      frame_deadline_ms = 0;
      frame_trace = 0;
      frame_span = 0;
      body = Buffer.contents b;
    }
  in
  match Server.Wire.decode_request f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "near-max_int string length decoded"
  | exception e ->
      Alcotest.failf "decode_request raised %s" (Printexc.to_string e)

let test_negative_id_rejected () =
  (* a u64 id with the top bits set decodes to a negative OCaml int and
     could never be echoed back; peek must refuse the stream *)
  let full = Server.Wire.encode_request ~id:1 Server.Wire.Ping_req in
  let buf = Bytes.of_string full in
  Bytes.set_int64_le buf 6 (-1L) (* id field: u32 length + version + kind *);
  match Server.Wire.peek (Bytes.to_string buf) ~off:0 with
  | `Bad _ -> ()
  | `Frame _ -> Alcotest.fail "u64 id with the top bit set accepted"
  | `Need _ -> Alcotest.fail "negative id misread as incomplete"

let test_v2_trace_roundtrip () =
  (* with a trace context the frame goes out v2 and echoes it back *)
  let s =
    Server.Wire.encode_request ~id:11 ~trace:(0x1234, 0x5678)
      Server.Wire.Ping_req
  in
  let f = frame_of s in
  check_int "v2 version" 2 f.Server.Wire.frame_version;
  check_int "trace id" 0x1234 f.Server.Wire.frame_trace;
  check_int "span id" 0x5678 f.Server.Wire.frame_span;
  (match Server.Wire.decode_request f with
  | Ok Server.Wire.Ping_req -> ()
  | _ -> Alcotest.fail "v2 ping decode");
  (* without one it stays v1 with a zero context *)
  let f1 =
    frame_of (Server.Wire.encode_request ~id:12 Server.Wire.Ping_req)
  in
  check_int "v1 version" Server.Wire.min_version f1.Server.Wire.frame_version;
  check_int "no trace" 0 f1.Server.Wire.frame_trace;
  check_int "no span" 0 f1.Server.Wire.frame_span;
  (* every truncation of a v2 frame still reads as incomplete *)
  for cut = 0 to String.length s - 1 do
    match Server.Wire.peek (String.sub s 0 cut) ~off:0 with
    | `Need n -> check_bool "positive need" true (n > 0)
    | `Frame _ -> Alcotest.failf "v2 truncation at %d produced a frame" cut
    | `Bad msg ->
        Alcotest.failf "v2 truncation at %d misread as bad: %s" cut msg
  done;
  (* garbage trace words on the wire clamp to 0 — advisory data must
     never kill a stream the body of which is fine *)
  let buf = Bytes.of_string s in
  Bytes.set_int64_le buf 18 (-1L);
  Bytes.set_int64_le buf 26 Int64.min_int;
  (match Server.Wire.peek (Bytes.to_string buf) ~off:0 with
  | `Frame (f, _) ->
      check_int "garbage trace clamps to 0" 0 f.Server.Wire.frame_trace;
      check_int "garbage span clamps to 0" 0 f.Server.Wire.frame_span;
      check_int "id intact" 11 f.Server.Wire.frame_id
  | `Need _ | `Bad _ -> Alcotest.fail "clamped v2 frame refused");
  (* a frame claiming v2 but sized for a v1 header is refused *)
  let short =
    Bytes.of_string (Server.Wire.encode_request ~id:13 Server.Wire.Ping_req)
  in
  Bytes.set short 4 '\x02';
  (match Server.Wire.peek (Bytes.to_string short) ~off:0 with
  | `Bad _ -> ()
  | `Frame _ -> Alcotest.fail "undersized v2 frame accepted"
  | `Need _ -> Alcotest.fail "undersized v2 frame misread as incomplete");
  (* encode refuses a negative context outright *)
  match
    Server.Wire.encode_request ~id:14 ~trace:(-1, 0) Server.Wire.Ping_req
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative trace context encoded"

(* ------------------------------------------------------------------ *)
(* End-to-end over a Unix socket                                       *)

let with_daemon ?config ~root f =
  (* materialize the shared pool from this domain before the server
     domain spawns, so both sides agree on one initialized pool *)
  ignore (Parallel.Pool.run (Array.init 8 (fun i () -> i)));
  let sock = Filename.concat root "test.sock" in
  let t = Server.Daemon.create ?config ~root (Server.Daemon.Unix_socket sock) in
  let d = Domain.spawn (fun () -> Server.Daemon.run t) in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop t;
      Domain.join d)
    (fun () -> f t (Server.Daemon.address t))

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let ok what = function
  | Ok v -> v
  | Error (e : Server.Wire.error) ->
      Alcotest.failf "%s: %s: %s" what
        (Server.Wire.error_code_name e.code)
        e.message

let e2e_bit_identical jobs () =
  Parallel.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_default_jobs 0)
  @@ fun () ->
  with_temp_root @@ fun root ->
  let s = make_synth () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let q = queries s 64 in
  let p = Serving.Predictor.of_artifact a in
  let direct_means = Serving.Predictor.predict p q in
  let direct_m2, direct_stds = Serving.Predictor.predict_with_std p q in
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  let means = ok "predict" (Server.Client.predict c meta q) in
  check_bool "socket means bit-identical to direct predict" true
    (Array.for_all2 Float.equal direct_means means);
  let means2, stds = ok "predict_with_std" (Server.Client.predict_with_std c meta q) in
  check_bool "socket means (variance path) bit-identical" true
    (Array.for_all2 Float.equal direct_m2 means2);
  check_bool "socket stds bit-identical" true
    (Array.for_all2 Float.equal direct_stds stds);
  check_string "fingerprints agree"
    (Serving.Artifact.fingerprint direct_means)
    (Serving.Artifact.fingerprint means)

let test_e2e_bit_identical_j1 = e2e_bit_identical 1

let test_e2e_bit_identical_j8 = e2e_bit_identical 8

let test_e2e_update_matches_incremental () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:30 ~r:12 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let k_new = 10 in
  let r = Polybasis.Basis.dim s.basis in
  let xs_new = Stats.Sampling.monte_carlo rng ~k:k_new ~r in
  let f_new =
    Array.init k_new (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs_new i))
          s.truth)
  in
  (* the reference: the same rank-1 update applied directly *)
  let upd = Serving.Incremental.of_artifact a in
  Serving.Incremental.add_batch upd ~xs:xs_new ~f:f_new;
  let reference = Serving.Incremental.to_artifact upd in
  let q = queries s 32 in
  let expected =
    Serving.Predictor.predict (Serving.Predictor.of_artifact reference) q
  in
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  let rev, samples = ok "update" (Server.Client.update c meta ~xs:xs_new ~f:f_new) in
  check_int "revision bumped" (a.rev + 1) rev;
  check_int "sample count" (30 + k_new) samples;
  (* post-update predictions come from the published snapshot entry
     and must match the directly-updated artifact bit for bit *)
  let means = ok "predict" (Server.Client.predict c meta q) in
  check_bool "post-update predictions bit-identical" true
    (Array.for_all2 Float.equal expected means);
  (* and the update was persisted before the response *)
  match Serving.Store.load ~root meta with
  | Error e -> Alcotest.failf "store reload: %s" e
  | Ok b ->
      check_int "persisted revision" (a.rev + 1) b.rev;
      check_bool "persisted coeffs" true
        (Array.for_all2 Float.equal reference.coeffs b.coeffs)

let test_e2e_list_models_and_stats () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  ok "ping" (Server.Client.ping c);
  (match ok "list_models" (Server.Client.list_models c) with
  | [ info ] ->
      check_bool "meta" true (info.Server.Wire.meta = meta);
      check_int "dim" 8 info.Server.Wire.dim;
      check_int "samples" 20 info.Server.Wire.samples;
      check_int "terms"
        (Polybasis.Basis.size s.basis)
        info.Server.Wire.terms;
      check_bool "bytes positive" true (info.Server.Wire.bytes > 0)
  | infos -> Alcotest.failf "expected 1 model, got %d" (List.length infos));
  let st = ok "stats" (Server.Client.stats c) in
  check_bool "uptime non-negative" true (st.Server.Client.uptime_s >= 0.);
  check_bool "requests counted" true (st.Server.Client.requests >= 2.);
  check_bool "nothing recovered from a clean store" true
    (Float.equal 0. st.Server.Client.recovered_updates);
  check_string "a standalone daemon is the leader" "leader"
    st.Server.Client.role;
  check_bool "metrics json is an object" true
    (String.length st.Server.Client.metrics_json > 0
    && st.Server.Client.metrics_json.[0] = '{')

let test_e2e_backpressure_busy ~shards () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.queue_capacity = 0;
      shards;
    }
  in
  with_daemon ~config ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  (* admin opcodes bypass the work queue and still answer *)
  ok "ping" (Server.Client.ping c);
  match Server.Client.predict c meta (queries s 4) with
  | Ok _ -> Alcotest.fail "full queue accepted a predict"
  | Error e ->
      check_bool "busy code" true (e.Server.Wire.code = Server.Wire.Busy)

let test_e2e_deadline_exceeded ~shards () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.batch_delay_s = 0.05;
      shards;
    }
  in
  with_daemon ~config ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  match Server.Client.predict c ~deadline_ms:1 meta (queries s 4) with
  | Ok _ -> Alcotest.fail "expired deadline still served"
  | Error e ->
      check_bool "deadline code" true
        (e.Server.Wire.code = Server.Wire.Deadline_exceeded)

let test_e2e_model_not_found () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  let missing = { meta with Serving.Artifact.circuit = "nope" } in
  match Server.Client.predict c missing (queries s 4) with
  | Ok _ -> Alcotest.fail "unknown model served"
  | Error e ->
      check_bool "not-found code" true
        (e.Server.Wire.code = Server.Wire.Model_not_found)

let test_e2e_dim_mismatch_bad_request () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  let bad = Linalg.Mat.of_rows [ Stats.Rng.gaussian_vec rng 3 ] in
  match Server.Client.predict c meta bad with
  | Ok _ -> Alcotest.fail "wrong-width batch served"
  | Error e ->
      check_bool "bad-request code" true
        (e.Server.Wire.code = Server.Wire.Bad_request);
      let has sub =
        try
          ignore (Str.search_forward (Str.regexp_string sub) e.message 0);
          true
        with Not_found -> false
      in
      check_bool "names the model" true (has "test/m");
      check_bool "states expected dim" true (has "expected 8");
      check_bool "states got dim" true (has "got 3")

let test_e2e_oversized_batch_refused () =
  (* against a 1-D model a large predict_with_variance response is ~2x
     the request, so an unbounded batch could overflow max_frame_len at
     encode time; admission must refuse it and the daemon must live on *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:10 ~r:1 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  let rows = Server.Wire.max_predict_rows ~with_std:true + 1 in
  let big = Linalg.Mat.create rows 1 in
  (match Server.Client.predict_with_std c meta big with
  | Ok _ -> Alcotest.fail "oversized batch served"
  | Error e ->
      check_bool "bad-request code" true
        (e.Server.Wire.code = Server.Wire.Bad_request));
  ok "ping after refusal" (Server.Client.ping c)

let test_e2e_hostile_frame_contained ~shards () =
  (* a structurally valid frame whose body advertises a ~2^62-byte
     string: the daemon must answer with a Protocol error and hang up
     that connection only — never crash *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:10 ~r:6 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let config = { Server.Daemon.default_config with Server.Daemon.shards } in
  with_daemon ~config ~root @@ fun _t addr ->
  let path =
    match addr with
    | Server.Daemon.Unix_socket p -> p
    | Server.Daemon.Tcp _ -> Alcotest.fail "expected a unix socket"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let b = Buffer.create 32 in
      Buffer.add_int32_le b
        (Int32.of_int (Server.Wire.header_len + 8));
      (* a v1 header: the hostile part is the body, not the framing *)
      Buffer.add_uint8 b Server.Wire.min_version;
      Buffer.add_uint8 b 2 (* predict *);
      Buffer.add_int64_le b 5L (* id *);
      Buffer.add_int32_le b 0l (* deadline *);
      Buffer.add_int64_le b 0x3FFFFFFFFFFFFFFFL (* circuit "length" *);
      let payload = Buffer.contents b in
      let n = Unix.write_substring fd payload 0 (String.length payload) in
      check_int "payload written" (String.length payload) n;
      (* the daemon replies once, then closes: drain to EOF *)
      let got = Buffer.create 256 in
      let tmp = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd tmp 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes got tmp 0 n;
            drain ()
      in
      drain ();
      match Server.Wire.peek (Buffer.contents got) ~off:0 with
      | `Frame (f, _) -> (
          check_int "id echoed" 5 f.Server.Wire.frame_id;
          match Server.Wire.decode_response ~expect:Server.Wire.Predict f with
          | Ok (Server.Wire.Error e) ->
              check_bool "protocol error" true
                (e.Server.Wire.code = Server.Wire.Protocol)
          | _ -> Alcotest.fail "expected a protocol error frame")
      | `Need _ | `Bad _ ->
          Alcotest.fail "no complete response frame before close");
  (* the daemon survived: a fresh connection still answers *)
  with_client addr @@ fun c -> ok "ping after hostile frame" (Server.Client.ping c)

let test_e2e_deadline_immune_to_frozen_clock ~shards () =
  (* Regression: deadlines used Unix.gettimeofday, so real time passing
     during the batch delay expired short deadlines — and an NTP step
     forward would have mass-expired every queued request. On the
     monotonic Obs.Clock an injected frozen source means no time passes
     between admission and execution, so even a 1 ms deadline must be
     served, while ~50 ms of {e wall} time elapse in the batch delay. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.batch_delay_s = 0.05;
      shards;
    }
  in
  let frozen = Obs.Clock.now_s () in
  Obs.Clock.set_source (fun () -> frozen);
  Fun.protect ~finally:(fun () -> Obs.Clock.reset_source ())
  @@ fun () ->
  with_daemon ~config ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  match Server.Client.predict c ~deadline_ms:1 meta (queries s 4) with
  | Ok means -> check_int "served, not expired" 4 (Array.length means)
  | Error e ->
      Alcotest.failf "frozen clock still expired the deadline: %s: %s"
        (Server.Wire.error_code_name e.Server.Wire.code)
        e.Server.Wire.message

let test_e2e_journal_replayed_on_create () =
  (* A journaled update whose artifact save never happened (the previous
     daemon was killed between the journal fsync and the save) must be
     replayed by Daemon.create and reported via stats. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:30 ~r:12 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let k_new = 8 in
  let r = Polybasis.Basis.dim s.basis in
  let xs_new = Stats.Sampling.monte_carlo rng ~k:k_new ~r in
  let f_new =
    Array.init k_new (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs_new i))
          s.truth)
  in
  (* what an uncrashed daemon would have produced *)
  let upd = Serving.Incremental.of_artifact a in
  Serving.Incremental.add_batch upd ~xs:xs_new ~f:f_new;
  let reference = Serving.Incremental.to_artifact upd in
  (* simulate the crash: journal entry present, artifact still at rev 0 *)
  let j = Serving.Journal.open_ ~root () in
  Serving.Journal.append j
    { Serving.Journal.meta; base_rev = a.rev; xs = xs_new; f = f_new };
  Serving.Journal.close j;
  with_daemon ~root @@ fun t addr ->
  let report = Server.Daemon.recovery t in
  check_int "one entry replayed" 1 report.Serving.Recovery.replayed;
  check_bool "recovery clean" true (Serving.Recovery.clean report);
  (match Serving.Store.load ~root meta with
  | Error e -> Alcotest.failf "store after recovery: %s" e
  | Ok b ->
      check_int "replayed revision" (a.rev + 1) b.rev;
      check_bool "replayed coeffs match uncrashed run" true
        (Array.for_all2 Float.equal reference.coeffs b.coeffs));
  with_client addr @@ fun c ->
  let st = ok "stats" (Server.Client.stats c) in
  check_bool "stats reports the replay" true
    (Float.equal 1. st.Server.Client.recovered_updates)

(* ------------------------------------------------------------------ *)
(* Scrape endpoint (HTTP served from the same select loop)             *)

let http_get sock req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 1024 in
      let tmp = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd tmp 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b tmp 0 n;
            drain ()
      in
      drain ();
      Buffer.contents b)

let contains hay sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) hay 0);
    true
  with Not_found -> false

let test_e2e_http_endpoints () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let hsock = Filename.concat root "http.sock" in
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.http = Some (Server.Daemon.Unix_socket hsock);
    }
  in
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Serving.Calibration.reset ())
  @@ fun () ->
  with_daemon ~config ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  ok "ping" (Server.Client.ping c);
  (* one calibrated update so the per-model calibration series exist *)
  let xs =
    let rng = Stats.Rng.create 7777 in
    Stats.Sampling.monte_carlo rng ~k:4 ~r:8
  in
  let f =
    Array.init 4 (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
          s.truth)
  in
  ignore (ok "update" (Server.Client.update c meta ~xs ~f));
  let metrics = http_get hsock "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" in
  check_bool "metrics 200" true (contains metrics "HTTP/1.1 200");
  check_bool "prometheus content type" true
    (contains metrics "text/plain; version=0.0.4");
  check_bool "request counter exposed" true
    (contains metrics "bmf_server_requests_total");
  check_bool "leader lag gauge exposed" true
    (contains metrics "bmf_repl_lag_entries");
  check_bool "calibration gauges exposed" true
    (contains metrics "bmf_calibration_coverage_1s");
  check_bool "+Inf bucket exposed" true (contains metrics "le=\"+Inf\"");
  check_bool "role series exposed" true
    (contains metrics "bmf_server_role{role=\"leader\"} 1");
  let health = http_get hsock "GET /health HTTP/1.1\r\n\r\n" in
  check_bool "health 200" true (contains health "HTTP/1.1 200");
  check_bool "health names the role" true
    (contains health "\"role\":\"leader\"");
  check_bool "health reports readiness" true
    (contains health "\"ready\":true");
  check_bool "health reports queue depth" true
    (contains health "\"queue_depth\"");
  let ready = http_get hsock "GET /ready HTTP/1.1\r\n\r\n" in
  check_bool "standalone leader is ready" true (contains ready "HTTP/1.1 200");
  let missing = http_get hsock "GET /nope HTTP/1.1\r\n\r\n" in
  check_bool "404 on an unknown path" true (contains missing "HTTP/1.1 404");
  let post = http_get hsock "POST /metrics HTTP/1.1\r\n\r\n" in
  check_bool "405 on POST" true (contains post "HTTP/1.1 405");
  (* the scrape listener shares the loop: the wire socket still answers *)
  ok "ping after scrapes" (Server.Client.ping c);
  let n = ok "predict" (Server.Client.predict c meta (queries s 4)) in
  check_int "predict after scrapes" 4 (Array.length n)

(* A request held past the slow-request threshold (0.25 s) by the batch
   window leaves one [slow_request] event naming its op. *)
let test_e2e_slow_request_event () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let config =
    { Server.Daemon.default_config with Server.Daemon.batch_delay_s = 0.3 }
  in
  Obs.Events.clear ();
  Obs.Events.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.disable ();
      Obs.Events.clear ())
  @@ fun () ->
  with_daemon ~config ~root (fun _t addr ->
      with_client addr @@ fun c ->
      ignore (ok "predict" (Server.Client.predict c meta (queries s 4))));
  let events, _ = Obs.Events.snapshot () in
  match List.filter (fun e -> e.Obs.Events.kind = "slow_request") events with
  | [ e ] ->
      check_bool "names the op" true
        (List.assoc_opt "op" e.Obs.Events.fields
        = Some (Obs.Trace.Str "predict"))
  | slow ->
      Alcotest.failf "expected one slow_request event, got %d"
        (List.length slow)

(* ------------------------------------------------------------------ *)
(* Bit-identity with the full observability plane on                   *)

let test_e2e_obs_bit_identity () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:30 ~r:12 () in
  let a = artifact_of s in
  let root_on = Filename.concat root "on" in
  let root_off = Filename.concat root "off" in
  ignore (Serving.Store.save ~root:root_on a);
  ignore (Serving.Store.save ~root:root_off a);
  let k_new = 6 in
  let r = Polybasis.Basis.dim s.basis in
  let xs =
    let rng = Stats.Rng.create 4242 in
    Stats.Sampling.monte_carlo rng ~k:k_new ~r
  in
  let f =
    Array.init k_new (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
          s.truth)
  in
  let q = queries s 32 in
  let run_one ~obs root =
    if obs then begin
      Obs.Trace.start ();
      Obs.Metrics.enable ();
      Obs.Events.enable ()
    end;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.stop ();
        Obs.Trace.clear ();
        Obs.Metrics.disable ();
        Obs.Events.disable ();
        Obs.Events.clear ();
        Serving.Calibration.reset ())
      (fun () ->
        with_daemon ~root @@ fun _t addr ->
        with_client addr @@ fun c ->
        ignore (ok "update" (Server.Client.update c meta ~xs ~f));
        ok "predict" (Server.Client.predict c meta q))
  in
  let on = run_one ~obs:true root_on in
  let off = run_one ~obs:false root_off in
  check_bool "means bit-identical with observability on" true
    (Array.for_all2 Float.equal on off);
  check_string "fingerprints agree"
    (Serving.Artifact.fingerprint off)
    (Serving.Artifact.fingerprint on);
  (* the persisted artifacts are byte-identical too: calibration,
     tracing and events never leak into the store *)
  let store_bytes root =
    let files =
      Sys.readdir root |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".bmfa")
      |> List.sort compare
    in
    List.map
      (fun f ->
        In_channel.with_open_bin (Filename.concat root f)
          In_channel.input_all)
      files
  in
  check_bool "store files byte-identical" true
    (store_bytes root_on = store_bytes root_off)

(* ------------------------------------------------------------------ *)
(* Loadgen percentile estimator                                        *)

let test_percentile_fixtures () =
  let checkf msg expected got =
    Alcotest.(check (float 1e-12)) msg expected got
  in
  let sorted = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "p0 is the minimum" 1. (Server.Loadgen.percentile sorted 0.);
  checkf "p50 of 5 is the median" 3. (Server.Loadgen.percentile sorted 0.5);
  checkf "p100 is the maximum" 5. (Server.Loadgen.percentile sorted 1.);
  (* linear interpolation between ranks: rank = q (n-1) *)
  checkf "p90 of 5 interpolates" 4.6 (Server.Loadgen.percentile sorted 0.9);
  checkf "p99 of 5 interpolates" 4.96 (Server.Loadgen.percentile sorted 0.99);
  checkf "p25 of 2 interpolates" 12.5
    (Server.Loadgen.percentile [| 10.; 20. |] 0.25);
  checkf "singleton" 7. (Server.Loadgen.percentile [| 7. |] 0.99);
  check_bool "empty is nan" true
    (Float.is_nan (Server.Loadgen.percentile [||] 0.5));
  (* the old estimator truncated: p99 of 10 samples returned index
     int_of_float (0.99 * 9) = 8, biasing the tail low *)
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  checkf "p99 of 10 is near the max, not sorted.(8)" 9.91
    (Server.Loadgen.percentile ten 0.99);
  checkf "out-of-range q clamps" 10. (Server.Loadgen.percentile ten 1.5)

let test_e2e_graceful_shutdown ~shards () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let sock = Filename.concat root "test.sock" in
  let config = { Server.Daemon.default_config with Server.Daemon.shards } in
  let t =
    Server.Daemon.create ~config ~root (Server.Daemon.Unix_socket sock)
  in
  let d = Domain.spawn (fun () -> Server.Daemon.run t) in
  let addr = Server.Daemon.address t in
  with_client addr (fun c -> ok "ping" (Server.Client.ping c));
  Server.Daemon.stop t;
  Domain.join d (* run returns: drain completed without hanging *);
  check_bool "stopping reported" true (Server.Daemon.stopping t);
  check_bool "socket path released" false (Sys.file_exists sock);
  match Server.Client.connect ~retries:0 addr with
  | exception Server.Client.Transport _ -> ()
  | c ->
      Server.Client.close c;
      Alcotest.fail "connect succeeded after shutdown"

(* ------------------------------------------------------------------ *)
(* Select-timeout and HTTP idle-deadline regressions                   *)

let test_e2e_deadline_refusal_not_quantized ~shards () =
  (* Regression: the select loop used a hardcoded 0.25 s timeout floor
     and process_pending slept out the whole batch window, so a 50 ms
     deadline inside a long window was refused only when the window
     closed. The timeout is now computed from the nearest pending
     deadline, so the refusal must land near the deadline itself even
     though the window stays open for another ~5 s. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.batch_delay_s = 5.;
      shards;
    }
  in
  with_daemon ~config ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  let t0 = Unix.gettimeofday () in
  (match Server.Client.predict c ~deadline_ms:50 meta (queries s 4) with
  | Ok _ -> Alcotest.fail "50 ms deadline inside a 5 s window was served"
  | Error e ->
      check_bool "deadline code" true
        (e.Server.Wire.code = Server.Wire.Deadline_exceeded));
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool
    (Printf.sprintf "refused near the deadline, not a select tick (%.0f ms)"
       (1e3 *. elapsed))
    true (elapsed < 0.2)

let test_e2e_stalled_scraper_dropped () =
  (* A scrape connection that trickles half a request line must be cut
     off at the idle read deadline — it cannot hold a conn-table slot
     forever — while wire clients (which carry no read deadline) are
     untouched. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  let hsock = Filename.concat root "http.sock" in
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.http = Some (Server.Daemon.Unix_socket hsock);
      http_idle_s = 0.3;
    }
  in
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  with_daemon ~config ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  ok "ping" (Server.Client.ping c);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX hsock);
      ignore (Unix.write_substring fd "GET /hea" 0 8);
      let t0 = Unix.gettimeofday () in
      let tmp = Bytes.create 256 in
      let rec await_eof () =
        match Unix.read fd tmp 0 256 with
        | 0 -> ()
        | _ -> await_eof ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            ()
      in
      await_eof ();
      let waited = Unix.gettimeofday () -. t0 in
      check_bool
        (Printf.sprintf "dropped near the 0.3 s idle deadline (%.0f ms)"
           (1e3 *. waited))
        true
        (waited < 2.));
  (* the wire connection outlived the scrape deadline untouched *)
  ok "ping after the drop" (Server.Client.ping c);
  (* a well-behaved scraper is still served, and the drop was counted *)
  let metrics = http_get hsock "GET /metrics HTTP/1.1\r\n\r\n" in
  check_bool "scrape after the drop" true (contains metrics "HTTP/1.1 200");
  check_bool "idle drop counted" true
    (contains metrics "bmf_server_http_idle_drops_total 1")

(* ------------------------------------------------------------------ *)
(* Pipelined writer requests                                           *)

(* Write [reqs] (id, request) back to back on one raw socket, then read
   frames until [until] holds of those received (by default, one per
   request); returns them in arrival order. *)
let pipelined ?until addr reqs =
  let until =
    match until with
    | Some u -> u
    | None -> fun got -> List.length got = List.length reqs
  in
  let path =
    match addr with
    | Server.Daemon.Unix_socket p -> p
    | Server.Daemon.Tcp _ -> Alcotest.fail "expected a unix socket"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let payload =
    String.concat ""
      (List.map (fun (id, req) -> Server.Wire.encode_request ~id req) reqs)
  in
  let n = Unix.write_substring fd payload 0 (String.length payload) in
  check_int "pipelined frames written" (String.length payload) n;
  let got = Buffer.create 4096 in
  let tmp = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec frames acc off =
    if until acc then List.rev acc
    else
      match Server.Wire.peek (Buffer.contents got) ~off with
      | `Frame (f, next) -> frames (f :: acc) next
      | `Bad m -> Alcotest.failf "bad response frame: %s" m
      | `Need _ ->
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0. then
            Alcotest.failf "only %d frames arrived" (List.length acc);
          (match Unix.select [ fd ] [] [] left with
          | [], _, _ -> ()
          | _ -> (
              match Unix.read fd tmp 0 (Bytes.length tmp) with
              | 0 ->
                  Alcotest.failf "closed after %d frames" (List.length acc)
              | k -> Buffer.add_subbytes got tmp 0 k));
          frames acc off
  in
  frames [] 0

let reply_for frames id ~expect =
  match List.find_opt (fun f -> f.Server.Wire.frame_id = id) frames with
  | None -> Alcotest.failf "no reply for request %d" id
  | Some f -> (
      match Server.Wire.decode_response ~expect f with
      | Ok r -> r
      | Error m -> Alcotest.failf "reply %d undecodable: %s" id m)

let stored_rev root =
  match Serving.Store.load ~root meta with
  | Ok b -> b.Serving.Artifact.rev
  | Error e -> Alcotest.failf "store reload: %s" e

let test_e2e_pipelined_writer_requests ~shards () =
  (* An update or a predict pipelined ahead of an ensemble_stats, or an
     update ahead of a subscribe, on one connection: every reply must
     arrive at every shard count, and each update must commit exactly
     once. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:30 ~r:12 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let r = Polybasis.Basis.dim s.basis in
  let xs = Stats.Sampling.monte_carlo (Stats.Rng.create 6161) ~k:4 ~r in
  let f =
    Array.init 4 (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
          s.truth)
  in
  let stats = Server.Wire.Ensemble_stats_req { name = "" } in
  let config = { Server.Daemon.default_config with Server.Daemon.shards } in
  with_daemon ~config ~root @@ fun _t addr ->
  let got =
    pipelined addr [ (1, Server.Wire.Update_req { meta; xs; f }); (2, stats) ]
  in
  (match reply_for got 1 ~expect:Server.Wire.Update with
  | Server.Wire.Updated { rev; _ } ->
      check_int "update acknowledged at the next revision" (a.rev + 1) rev
  | _ -> Alcotest.fail "update answered with something else");
  (match reply_for got 2 ~expect:Server.Wire.Ensemble_stats with
  | Server.Wire.Ensemble_stats_payload _ -> ()
  | _ -> Alcotest.fail "ensemble_stats answered with something else");
  check_int "stored revision advanced once" (a.rev + 1) (stored_rev root);
  let q = queries s 8 in
  let got =
    pipelined addr
      [
        (3, Server.Wire.Predict_req { meta; points = q; with_std = false });
        (4, stats);
      ]
  in
  (match reply_for got 3 ~expect:Server.Wire.Predict with
  | Server.Wire.Predicted { means; _ } ->
      check_int "predict answered" 8 (Array.length means)
  | _ -> Alcotest.fail "predict answered with something else");
  (match reply_for got 4 ~expect:Server.Wire.Ensemble_stats with
  | Server.Wire.Ensemble_stats_payload _ -> ()
  | _ -> Alcotest.fail "ensemble_stats answered with something else");
  check_int "a predict leaves the revision alone" (a.rev + 1) (stored_rev root);
  (* a subscribe moves the connection to the writer: the update queued
     ahead of it is still acknowledged, and the stream starts *)
  let is_status f =
    Server.Wire.is_push_kind f.Server.Wire.frame_kind
    &&
    match Server.Wire.decode_push f with
    | Ok (Server.Wire.Repl_status _) -> true
    | _ -> false
  in
  let got =
    pipelined
      ~until:(fun got ->
        List.exists (fun f -> f.Server.Wire.frame_id = 5) got
        && List.exists is_status got)
      addr
      [
        (5, Server.Wire.Update_req { meta; xs; f });
        (6, Server.Wire.Subscribe_req { vector = [] });
      ]
  in
  (match reply_for got 5 ~expect:Server.Wire.Update with
  | Server.Wire.Updated { rev; _ } ->
      check_int "update ahead of a subscribe acknowledged" (a.rev + 2) rev
  | _ -> Alcotest.fail "update answered with something else");
  check_int "stored revision advanced once more" (a.rev + 2) (stored_rev root)

(* ------------------------------------------------------------------ *)
(* Sharded serving                                                     *)

let store_bytes root =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bmfa")
  |> List.sort compare
  |> List.map (fun f ->
         In_channel.with_open_bin (Filename.concat root f)
           In_channel.input_all)

let test_sharded_bit_identical () =
  (* Four connections against a 4-shard daemon land one per worker
     domain (the acceptor deals them round-robin); every shard must
     serve bits identical to a direct in-process Predictor call. *)
  with_temp_root @@ fun root ->
  let s = make_synth () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let q = queries s 64 in
  let p = Serving.Predictor.of_artifact a in
  let direct_means = Serving.Predictor.predict p q in
  let direct_m2, direct_stds = Serving.Predictor.predict_with_std p q in
  let config =
    { Server.Daemon.default_config with Server.Daemon.shards = 4 }
  in
  with_daemon ~config ~root @@ fun _t addr ->
  for i = 1 to 4 do
    with_client addr @@ fun c ->
    let means = ok "predict" (Server.Client.predict c meta q) in
    check_bool
      (Printf.sprintf "conn %d means bit-identical" i)
      true
      (Array.for_all2 Float.equal direct_means means);
    check_string "fingerprints agree"
      (Serving.Artifact.fingerprint direct_means)
      (Serving.Artifact.fingerprint means);
    let m2, stds =
      ok "predict_with_std" (Server.Client.predict_with_std c meta q)
    in
    check_bool
      (Printf.sprintf "conn %d variance-path means bit-identical" i)
      true
      (Array.for_all2 Float.equal direct_m2 m2);
    check_bool
      (Printf.sprintf "conn %d stds bit-identical" i)
      true
      (Array.for_all2 Float.equal direct_stds stds)
  done

let test_sharded_mixed_load_identity () =
  (* The same deterministic interleaving of updates and predicts,
     replayed against a 1-shard and a 4-shard daemon over identical
     seed stores, must produce identical response streams and leave
     byte-identical artifacts on disk. Updates are issued from a single
     connection so the journal commit order is the same at any shard
     count. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:30 ~r:12 () in
  let a = artifact_of s in
  let root1 = Filename.concat root "s1" in
  let root4 = Filename.concat root "s4" in
  ignore (Serving.Store.save ~root:root1 a);
  ignore (Serving.Store.save ~root:root4 a);
  let r = Polybasis.Basis.dim s.basis in
  let mix_rng = Stats.Rng.create 9090 in
  let steps =
    List.init 12 (fun i ->
        let k = 2 + (i mod 3) in
        let xs = Stats.Sampling.monte_carlo mix_rng ~k ~r in
        let f =
          Array.init k (fun j ->
              Linalg.Vec.dot
                (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs j))
                s.truth)
        in
        let q =
          Linalg.Mat.of_rows
            (List.init 8 (fun _ -> Stats.Rng.gaussian_vec mix_rng r))
        in
        (xs, f, q))
  in
  let run_root ~shards root =
    let config = { Server.Daemon.default_config with Server.Daemon.shards } in
    with_daemon ~config ~root @@ fun _t addr ->
    with_client addr @@ fun u ->
    with_client addr @@ fun p1 ->
    with_client addr @@ fun p2 ->
    with_client addr @@ fun p3 ->
    let preds = [| p1; p2; p3 |] in
    List.concat
      (List.mapi
         (fun i (xs, f, q) ->
           ignore (ok "update" (Server.Client.update u meta ~xs ~f));
           let c = preds.(i mod 3) in
           Array.to_list (ok "predict" (Server.Client.predict c meta q)))
         steps)
  in
  let m1 = run_root ~shards:1 root1 in
  let m4 = run_root ~shards:4 root4 in
  check_bool "mixed-load means identical at shards 1 vs 4" true
    (List.for_all2 Float.equal m1 m4);
  check_string "fingerprints agree"
    (Serving.Artifact.fingerprint (Array.of_list m1))
    (Serving.Artifact.fingerprint (Array.of_list m4));
  check_bool "store files byte-identical at shards 1 vs 4" true
    (store_bytes root1 = store_bytes root4)

let test_sharded_drain_in_flight () =
  (* Stop a 3-shard daemon while every shard holds an in-flight predict
     inside an open batch window: each request must still get a
     response frame (served, or refused shutting_down if it had not
     been admitted yet), every connection must be flushed and closed,
     and run must return. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  ignore (Serving.Store.save ~root (artifact_of s));
  ignore (Parallel.Pool.run (Array.init 8 (fun i () -> i)));
  let sock = Filename.concat root "test.sock" in
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.shards = 3;
      batch_delay_s = 0.2;
    }
  in
  let t = Server.Daemon.create ~config ~root (Server.Daemon.Unix_socket sock) in
  let d = Domain.spawn (fun () -> Server.Daemon.run t) in
  let fds =
    List.init 3 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        fds;
      Server.Daemon.stop t)
    (fun () ->
      let q = queries s 8 in
      List.iteri
        (fun i fd ->
          let payload =
            Server.Wire.encode_request ~id:(100 + i)
              (Server.Wire.Predict_req { meta; points = q; with_std = false })
          in
          let n =
            Unix.write_substring fd payload 0 (String.length payload)
          in
          check_int "request written" (String.length payload) n)
        fds;
      (* let the handoff and admissions land inside the 0.2 s window *)
      Unix.sleepf 0.05;
      Server.Daemon.stop t;
      Domain.join d (* run returned: every shard quiesced *);
      List.iteri
        (fun i fd ->
          let got = Buffer.create 4096 in
          let tmp = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd tmp 0 4096 with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes got tmp 0 n;
                drain ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
          in
          drain ();
          match Server.Wire.peek (Buffer.contents got) ~off:0 with
          | `Frame (f, _) -> (
              check_int "request id echoed" (100 + i) f.Server.Wire.frame_id;
              match
                Server.Wire.decode_response ~expect:Server.Wire.Predict f
              with
              | Ok (Server.Wire.Predicted { means; _ }) ->
                  check_int "in-flight predict served through the drain" 8
                    (Array.length means)
              | Ok (Server.Wire.Error e) ->
                  check_bool "unadmitted work refused as shutting_down" true
                    (e.Server.Wire.code = Server.Wire.Shutting_down)
              | _ -> Alcotest.failf "conn %d: unexpected response" i)
          | `Need _ | `Bad _ ->
              Alcotest.failf "conn %d: no response frame before close" i)
        fds)

let test_sharded_update_snapshot_race () =
  (* Snapshot publication happens before the update's ack is queued: a
     client that saw the ack and then predicts from a different shard
     must observe exactly the persisted revision — never the old
     snapshot. Exercised across repeated swap cycles. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:30 ~r:12 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let config =
    { Server.Daemon.default_config with Server.Daemon.shards = 2 }
  in
  let r = Polybasis.Basis.dim s.basis in
  let race_rng = Stats.Rng.create 5151 in
  let q = queries s 16 in
  with_daemon ~config ~root @@ fun _t addr ->
  with_client addr @@ fun cu ->
  (* second connection lands on the other shard *)
  with_client addr @@ fun cp ->
  for round = 1 to 8 do
    let k = 3 in
    let xs = Stats.Sampling.monte_carlo race_rng ~k ~r in
    let f =
      Array.init k (fun j ->
          Linalg.Vec.dot
            (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs j))
            s.truth)
    in
    let rev, _ = ok "update" (Server.Client.update cu meta ~xs ~f) in
    check_int "revision advances" (a.rev + round) rev;
    let means = ok "predict" (Server.Client.predict cp meta q) in
    let direct =
      match Serving.Store.load ~root meta with
      | Error e -> Alcotest.failf "store reload: %s" e
      | Ok b -> Serving.Predictor.predict (Serving.Predictor.of_artifact b) q
    in
    check_bool
      (Printf.sprintf "round %d: post-ack predict sees the new revision"
         round)
      true
      (Array.for_all2 Float.equal direct means)
  done

(* ------------------------------------------------------------------ *)
(* Ensemble serving: wire codec, bit-identity against the offline BMA
   reference at any shard/jobs count, evidence riding the update path,
   and live pickup of out-of-band ensemble definitions.               *)

let meta2 = { meta with Serving.Artifact.seed = 8 }

let test_ensemble_wire_roundtrips () =
  let s = make_synth ~k:10 ~r:6 () in
  let points = queries s 5 in
  (match
     roundtrip_request ~deadline_ms:100
       (Server.Wire.Predict_ensemble_req { name = "blue"; points })
   with
  | Server.Wire.Predict_ensemble_req p ->
      check_string "name" "blue" p.name;
      check_bool "points bit-identical" true (mats_equal points p.points)
  | _ -> Alcotest.fail "predict_ensemble round-trip");
  (match
     roundtrip_request (Server.Wire.Ensemble_stats_req { name = "green" })
   with
  | Server.Wire.Ensemble_stats_req { name = "green" } -> ()
  | _ -> Alcotest.fail "ensemble_stats round-trip");
  (* the empty name means "every ensemble" for stats... *)
  (match roundtrip_request (Server.Wire.Ensemble_stats_req { name = "" }) with
  | Server.Wire.Ensemble_stats_req { name = "" } -> ()
  | _ -> Alcotest.fail "ensemble_stats broadcast round-trip");
  (* ...but is a framing error for predict *)
  let bad =
    frame_of
      (Server.Wire.encode_request ~id:3
         (Server.Wire.Predict_ensemble_req { name = ""; points }))
  in
  (match Server.Wire.decode_request bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty ensemble name accepted");
  let v k = Array.init 7 (fun i -> ldexp (float_of_int ((k * 7) + i + 1)) (-3)) in
  (match
     roundtrip_response ~expect:Server.Wire.Predict_ensemble
       (Server.Wire.Ensemble_predicted
          { means = v 0; within = v 1; between = v 2 })
   with
  | Server.Wire.Ensemble_predicted { means; within; between } ->
      check_bool "means bit-identical" true
        (Array.for_all2 Float.equal (v 0) means);
      check_bool "within bit-identical" true
        (Array.for_all2 Float.equal (v 1) within);
      check_bool "between bit-identical" true
        (Array.for_all2 Float.equal (v 2) between)
  | _ -> Alcotest.fail "ensemble_predicted round-trip");
  match
    roundtrip_response ~expect:Server.Wire.Ensemble_stats
      (Server.Wire.Ensemble_stats_payload { json = "[{\"w\":0.5}]" })
  with
  | Server.Wire.Ensemble_stats_payload { json } ->
      check_string "json payload" "[{\"w\":0.5}]" json
  | _ -> Alcotest.fail "ensemble_stats payload round-trip"

(* Two fitted members over the same linear basis plus a persisted
   two-member ensemble named "pair"; returns the first synth (for
   queries and update data) and the offline BMA reference closure. *)
let ensemble_setup root =
  let s1 = make_synth ~k:30 ~r:10 () in
  let s2 = make_synth ~k:30 ~r:10 () in
  let a1 = artifact_of s1 in
  let a2 =
    Serving.Artifact.of_fit ~meta:meta2 ~basis:s2.basis ~prior:s2.prior
      ~hyper:s2.hyper ~g:s2.g ~f:s2.f ()
  in
  ignore (Serving.Store.save ~root a1);
  ignore (Serving.Store.save ~root a2);
  let st = Ensemble.State.create "pair" in
  let st = Result.get_ok (Ensemble.State.add st meta) in
  let st = Result.get_ok (Ensemble.State.add st meta2) in
  ignore (Ensemble.Store.save ~root st);
  let reference st q =
    Ensemble.Predictor.predict st
      [|
        Some (Serving.Predictor.of_artifact a1);
        Some (Serving.Predictor.of_artifact a2);
      |]
      q
  in
  (s1, st, reference)

let ensemble_e2e ~shards ~jobs () =
  Parallel.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_default_jobs 0)
  @@ fun () ->
  with_temp_root @@ fun root ->
  let s1, st, reference = ensemble_setup root in
  let q = queries s1 64 in
  let dm, dw, db = reference st q in
  let config = { Server.Daemon.default_config with Server.Daemon.shards } in
  with_daemon ~config ~root @@ fun _t addr ->
  (* one connection per shard: the acceptor deals them round-robin, so
     every worker domain must reproduce the offline fold bit-for-bit *)
  for conn = 1 to Stdlib.max 2 shards do
    with_client addr @@ fun c ->
    let m, w, b =
      ok "predict_ensemble" (Server.Client.predict_ensemble c ~name:"pair" q)
    in
    check_bool
      (Printf.sprintf "conn %d BMA means bit-identical" conn)
      true
      (Array.for_all2 Float.equal dm m);
    check_bool
      (Printf.sprintf "conn %d within-variance bit-identical" conn)
      true
      (Array.for_all2 Float.equal dw w);
    check_bool
      (Printf.sprintf "conn %d between-variance bit-identical" conn)
      true
      (Array.for_all2 Float.equal db b);
    check_string "mean fingerprints agree"
      (Serving.Artifact.fingerprint dm)
      (Serving.Artifact.fingerprint m)
  done

let test_ensemble_e2e_s1_j1 = ensemble_e2e ~shards:1 ~jobs:1

let test_ensemble_e2e_s1_j8 = ensemble_e2e ~shards:1 ~jobs:8

let test_ensemble_e2e_s4_j1 = ensemble_e2e ~shards:4 ~jobs:1

let test_ensemble_e2e_s4_j8 = ensemble_e2e ~shards:4 ~jobs:8

let members_of_stats json =
  match Serving.Json.of_string json with
  | Error e -> Alcotest.failf "stats payload unparsable: %s" e
  | Ok doc -> (
      match Serving.Json.member "members" doc with
      | Some (Serving.Json.Arr l) -> l
      | _ -> Alcotest.failf "no members array in %s" json)

let member_num key m =
  match Serving.Json.member key m with
  | Some (Serving.Json.Num v) -> v
  | _ -> Alcotest.failf "member lacks %s" key

let test_e2e_ensemble_evidence_moves () =
  with_temp_root @@ fun root ->
  let s1, st, reference = ensemble_setup root in
  let q = queries s1 16 in
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  (* broadcast stats is a JSON array; named is one object *)
  let all = ok "ensemble_stats" (Server.Client.ensemble_stats c ()) in
  check_bool "broadcast payload is an array" true (all.[0] = '[');
  let named =
    ok "ensemble_stats" (Server.Client.ensemble_stats c ~name:"pair" ())
  in
  List.iter
    (fun m -> check_bool "no evidence yet" true (member_num "points" m = 0.))
    (members_of_stats named);
  (* an update to member 1 scores BOTH members on the held-out batch
     with their pre-update predictors, then commits the evidence *)
  let k_new = 9 in
  let r = Polybasis.Basis.dim s1.basis in
  let xs = Stats.Sampling.monte_carlo rng ~k:k_new ~r in
  let f =
    Array.init k_new (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s1.basis (Linalg.Mat.row xs i))
          s1.truth)
  in
  (* the reference: phase-1 scoring against the same pre-update state *)
  let predictor_of m =
    match Serving.Store.load ~root m with
    | Ok a -> Some (Serving.Predictor.of_artifact a)
    | Error _ -> None
  in
  let expected = Ensemble.Manager.score ~predictor_of st ~xs ~f in
  ignore (ok "update" (Server.Client.update c meta ~xs ~f));
  let after =
    members_of_stats
      (ok "ensemble_stats" (Server.Client.ensemble_stats c ~name:"pair" ()))
  in
  List.iteri
    (fun i m ->
      check_bool
        (Printf.sprintf "member %d scored the whole batch" i)
        true
        (member_num "points" m = float_of_int k_new);
      check_bool
        (Printf.sprintf "member %d evidence matches offline scoring" i)
        true
        (Float.equal
           expected.Ensemble.State.members.(i).Ensemble.State.log_ev
           (member_num "log_evidence" m)))
    after;
  (* the advanced evidence was persisted, survives a daemon restart and
     still drives a bit-identical BMA answer *)
  (match Ensemble.Store.load ~root "pair" with
  | Error e -> Alcotest.failf "bmfe reload: %s" e
  | Ok disk -> check_bool "persisted state advanced" true (disk = expected));
  (* the post-update reference predicts with the REFRESHED member
     artifacts (member 1 advanced a revision) under the advanced
     weights *)
  ignore reference;
  let dm, _, _ =
    Ensemble.Predictor.predict expected
      [| predictor_of meta; predictor_of meta2 |]
      q
  in
  let m, _, _ =
    ok "predict_ensemble" (Server.Client.predict_ensemble c ~name:"pair" q)
  in
  check_bool "post-evidence BMA means bit-identical" true
    (Array.for_all2 Float.equal dm m);
  (* unknown ensembles refuse cleanly *)
  (match Server.Client.predict_ensemble c ~name:"ghost" q with
  | Error e ->
      check_bool "unknown ensemble is model_not_found" true
        (e.Server.Wire.code = Server.Wire.Model_not_found)
  | Ok _ -> Alcotest.fail "unknown ensemble served");
  (* an out-of-band create (the canary-registration CLI against the
     live store) is picked up by the next stats call *)
  let solo = Result.get_ok (Ensemble.State.add (Ensemble.State.create "solo") meta) in
  ignore (Ensemble.Store.save ~root solo);
  let refreshed = ok "ensemble_stats" (Server.Client.ensemble_stats c ()) in
  check_bool "live pickup of a new .bmfe" true
    (let re = Str.regexp_string "\"solo\"" in
     try
       ignore (Str.search_forward re refreshed 0);
       true
     with Not_found -> false);
  let m2, _, _ =
    ok "predict_ensemble (picked up)"
      (Server.Client.predict_ensemble c ~name:"solo" q)
  in
  check_int "new ensemble serves" 16 (Array.length m2)

let test_e2e_ensemble_oversized_refused () =
  with_temp_root @@ fun root ->
  let _s1, _st, _reference = ensemble_setup root in
  with_daemon ~root @@ fun _t addr ->
  with_client addr @@ fun c ->
  let rows = Server.Wire.max_ensemble_rows + 1 in
  let q = Linalg.Mat.init rows 1 (fun _ _ -> 0.) in
  match Server.Client.predict_ensemble c ~name:"pair" q with
  | Error e ->
      check_bool "oversized ensemble batch refused as bad_request" true
        (e.Server.Wire.code = Server.Wire.Bad_request)
  | Ok _ -> Alcotest.fail "oversized ensemble batch served"

(* Allocation gate for the wire decoder: a predict frame at the served
   RO model's dimension (572) decodes in O(1) minor words per call, the
   same count at 8 rows and at 64. The floats go straight from the body
   into the matrix's Bigarray. *)
let test_decode_allocation_gate () =
  let dim = 572 in
  let words rows =
    let points =
      Linalg.Mat.init rows dim (fun i j -> float_of_int ((i * dim) + j) /. 7.)
    in
    let f =
      frame_of
        (Server.Wire.encode_request ~id:1
           (Server.Wire.Predict_req { meta; points; with_std = false }))
    in
    let decode () =
      match Server.Wire.decode_request f with
      | Ok r -> ignore (Sys.opaque_identity r)
      | Error e -> Alcotest.failf "decode: %s" e
    in
    for _ = 1 to 3 do
      decode ()
    done;
    let calls = 20 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      decode ()
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let w8 = words 8 and w64 = words 64 in
  if w8 > 128. || w64 > 128. then
    Alcotest.failf
      "decode_request allocates %.0f (8 rows) and %.0f (64 rows) minor words \
       per call (budget 128)"
      w8 w64;
  if Float.abs (w64 -. w8) > 16. then
    Alcotest.failf
      "decode_request: %.0f minor words at 8 rows, %.0f at 64 (budget: the \
       same count, +/- 16)"
      w8 w64

(* A matrix that claims 10^8 rows of zero columns holds no floats, so
   only a bound on rows against the bytes left stops the decoder from
   looping once per claimed row. The decode runs before admission checks
   the batch size, for every opcode that carries a matrix. *)
let test_zero_column_matrix_rejected () =
  let b = Buffer.create 64 in
  let put_int n = Buffer.add_int64_le b (Int64.of_int n) in
  let put_string s =
    put_int (String.length s);
    Buffer.add_string b s
  in
  List.iter
    (fun (kind, with_name) ->
      Buffer.clear b;
      if with_name then put_string "pair"
      else begin
        put_string meta.circuit;
        put_string meta.metric;
        put_string meta.scale;
        put_int meta.seed
      end;
      put_int 100_000_000;
      put_int 0;
      (* [update] carries a float array after the matrix *)
      if kind = 4 then put_int 0;
      let f =
        {
          Server.Wire.frame_version = 1;
          frame_kind = kind;
          frame_id = 1;
          frame_deadline_ms = 0;
          frame_trace = 0;
          frame_span = 0;
          body = Buffer.contents b;
        }
      in
      match Server.Wire.decode_request f with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "opcode %d: 10^8 x 0 matrix decoded" kind)
    [ (2, false); (3, false); (4, false); (11, true) ]

(* Byte goldens: one frame per request, response and push kind, captured
   before the codec helpers were shared. Requests frame as v1 without a
   trace context and as v2 with one; responses always frame as v1 and
   pushes as v2. Inputs are fixed literals, so no rng draw moves. *)
let wire_golden_frames () =
  let module W = Server.Wire in
  let gm =
    { Serving.Artifact.circuit = "ro"; metric = "freq"; scale = "quick"; seed = 9 }
  in
  let points =
    Linalg.Mat.init 3 4 (fun i j -> (float_of_int ((i * 4) + j) *. 0.5) -. 1.25)
  in
  let xs = Linalg.Mat.init 2 4 (fun i j -> float_of_int (i - j) /. 3.) in
  let f = [| 0.125; -0. |] in
  let requests =
    [
      ("ping", W.Ping_req);
      ("predict", W.Predict_req { meta = gm; points; with_std = false });
      ("predict_with_variance", W.Predict_req { meta = gm; points; with_std = true });
      ("update", W.Update_req { meta = gm; xs; f });
      ("list_models", W.List_models_req);
      ("stats", W.Stats_req);
      ( "subscribe",
        W.Subscribe_req { vector = [ (gm, 4); ({ gm with seed = 10 }, 0) ] } );
      ("repl_ack", W.Repl_ack_req { seq = 77 });
      ("promote", W.Promote_req);
      ("events", W.Events_req);
      ("predict_ensemble", W.Predict_ensemble_req { name = "pair"; points });
      ("ensemble_stats", W.Ensemble_stats_req { name = "pair" });
    ]
  in
  let responses =
    [
      ("pong", W.Pong);
      ("predicted", W.Predicted { means = [| 1.; -2.5 |]; stds = None });
      ( "predicted with std",
        W.Predicted { means = [| 1.; -2.5 |]; stds = Some [| 0.25; infinity |] } );
      ("updated", W.Updated { rev = 3; samples = 125 });
      ( "models",
        W.Models
          [
            {
              W.meta = gm;
              rev = 2;
              samples = 100;
              terms = 573;
              dim = 572;
              file = "ro__freq.bmfa";
              bytes = 527850;
            };
          ] );
      ( "stats",
        W.Stats_payload
          {
            uptime_s = 12.5;
            requests = 1000.;
            recovered_updates = 2.;
            role = "leader";
            journal_seq = 5;
            shards = 2;
            metrics_json = "{\"a\":1}";
          } );
      ("promoted", W.Promoted { was_follower = true; journal_seq = 8 });
      ("events", W.Events_payload { json = "[]" });
      ( "ensemble predicted",
        W.Ensemble_predicted
          { means = [| 1.5 |]; within = [| 0.01 |]; between = [| 0.002 |] } );
      ("ensemble stats", W.Ensemble_stats_payload { json = "{}" });
      ("error", W.Error { code = W.Not_leader; message = "unix://leader.sock" });
    ]
  in
  let pushes =
    [
      ( "snapshot_chunk",
        W.Snapshot_chunk
          { meta = gm; rev = 2; total = 10; offset = 4; data = "abcdef" } );
      ("journal_entry", W.Journal_entry { seq = 6; ts = 1.75e9; entry = "WAL" });
      ("repl_status", W.Repl_status { seq = 6; snapshots = 1; ts = 1.75e9 });
      ("repl_heartbeat", W.Repl_heartbeat { seq = 6; ts = 1.75e9 });
    ]
  in
  let trace = (0x1234_5678, 0x9abc) in
  List.concat
    [
      List.concat_map
        (fun (name, r) ->
          [
            ("request v1 " ^ name, W.encode_request ~id:17 ~deadline_ms:250 r);
            ( "request v2 " ^ name,
              W.encode_request ~id:17 ~deadline_ms:250 ~trace r );
          ])
        requests;
      List.map
        (fun (name, r) -> ("response v1 " ^ name, W.encode_response ~id:17 r))
        responses;
      List.concat_map
        (fun (name, p) ->
          [
            ("push v2 " ^ name, W.encode_push p);
            ("push v2 traced " ^ name, W.encode_push ~trace p);
          ])
        pushes;
    ]

let wire_goldens =
  [
    ("request v1 ping", "dd5b75c47f7e18d6");
    ("request v2 ping", "bd2d9fa69cc3110b");
    ("request v1 predict", "b1a7454934532d9f");
    ("request v2 predict", "554a239887dfedb0");
    ("request v1 predict_with_variance", "2e4be1d7a46dcf1a");
    ("request v2 predict_with_variance", "74d119baa77ec24d");
    ("request v1 update", "e9541aee060f2f44");
    ("request v2 update", "d8d8e4603af8a5a3");
    ("request v1 list_models", "9a96d08bcc0ed75a");
    ("request v2 list_models", "713b250d36ec0d7f");
    ("request v1 stats", "d59f07d839108163");
    ("request v2 stats", "a41f7d0f6eb71956");
    ("request v1 subscribe", "281d665f612e541b");
    ("request v2 subscribe", "66b0263aaa53c7ce");
    ("request v1 repl_ack", "4cc44020dfebc09c");
    ("request v2 repl_ack", "400991b6845c7b95");
    ("request v1 promote", "01425dce485350ce");
    ("request v2 promote", "83384d4bade44393");
    ("request v1 events", "3c4a951ab554fad7");
    ("request v2 events", "18e81619420ef52a");
    ("request v1 predict_ensemble", "7ccdfa8b163c3243");
    ("request v2 predict_ensemble", "259b9316f03ee592");
    ("request v1 ensemble_stats", "d9ce22c93c8c1ec9");
    ("request v2 ensemble_stats", "1a79b092c45a2650");
    ("response v1 pong", "9fec5f4dab15800b");
    ("response v1 predicted", "676a49d9cc58f343");
    ("response v1 predicted with std", "b763585b3b7fa94a");
    ("response v1 updated", "e82722c057abd1a5");
    ("response v1 models", "09698f1ffeac7bb2");
    ("response v1 stats", "55f2972e44904303");
    ("response v1 promoted", "78f47f180fd9fdf2");
    ("response v1 events", "25cd98ab7c0c1193");
    ("response v1 ensemble predicted", "be8d21e2ff60338b");
    ("response v1 ensemble stats", "263a78ab7c68ad13");
    ("response v1 error", "104e2b958d61435c");
    ("push v2 snapshot_chunk", "bb965fd43eb9c505");
    ("push v2 traced snapshot_chunk", "b0420279cb5f4aa7");
    ("push v2 journal_entry", "898637d4ab1b78e0");
    ("push v2 traced journal_entry", "d308fd2618f30966");
    ("push v2 repl_status", "a561cc4422bbff94");
    ("push v2 traced repl_status", "467d84bce8a00a0a");
    ("push v2 repl_heartbeat", "0ee5e2d0e2ff4b0e");
    ("push v2 traced repl_heartbeat", "2e65cffe3429fd9c");
  ]

let test_wire_bytes_goldens () =
  let frames = wire_golden_frames () in
  check_int "one golden per frame" (List.length frames)
    (List.length wire_goldens);
  List.iter2
    (fun (name, bytes) (name', hex) ->
      check_string "golden label" name' name;
      check_string name hex (Serving.Artifact.checksum_hex bytes))
    frames wire_goldens

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trips" `Quick
            test_request_roundtrips;
          Alcotest.test_case "response round-trips" `Quick
            test_response_roundtrips;
          Alcotest.test_case "truncated frames" `Quick
            test_truncated_frames_need_more;
          Alcotest.test_case "bad version" `Quick test_bad_version_rejected;
          Alcotest.test_case "oversized frame" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "garbage bodies" `Quick
            test_garbage_bodies_rejected;
          Alcotest.test_case "overflow length" `Quick
            test_overflow_length_rejected;
          Alcotest.test_case "negative id" `Quick test_negative_id_rejected;
          Alcotest.test_case "v2 trace context" `Quick
            test_v2_trace_roundtrip;
          Alcotest.test_case "frame bytes goldens" `Quick
            test_wire_bytes_goldens;
          Alcotest.test_case "zero-column matrix rejected" `Quick
            test_zero_column_matrix_rejected;
        ] );
      ( "alloc-gate",
        [
          Alcotest.test_case "predict decode is O(1) words" `Quick
            test_decode_allocation_gate;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "bit-identical at -j 1" `Quick
            test_e2e_bit_identical_j1;
          Alcotest.test_case "bit-identical at -j 8" `Quick
            test_e2e_bit_identical_j8;
          Alcotest.test_case "update = incremental" `Quick
            test_e2e_update_matches_incremental;
          Alcotest.test_case "list_models and stats" `Quick
            test_e2e_list_models_and_stats;
          Alcotest.test_case "backpressure busy" `Quick
            (test_e2e_backpressure_busy ~shards:1);
          Alcotest.test_case "backpressure busy, shards 2" `Quick
            (test_e2e_backpressure_busy ~shards:2);
          Alcotest.test_case "deadline exceeded" `Quick
            (test_e2e_deadline_exceeded ~shards:1);
          Alcotest.test_case "deadline exceeded, shards 2" `Quick
            (test_e2e_deadline_exceeded ~shards:2);
          Alcotest.test_case "deadline refusal not quantized" `Quick
            (test_e2e_deadline_refusal_not_quantized ~shards:1);
          Alcotest.test_case "deadline refusal not quantized, shards 2"
            `Quick
            (test_e2e_deadline_refusal_not_quantized ~shards:2);
          Alcotest.test_case "model not found" `Quick test_e2e_model_not_found;
          Alcotest.test_case "dim mismatch" `Quick
            test_e2e_dim_mismatch_bad_request;
          Alcotest.test_case "oversized batch refused" `Quick
            test_e2e_oversized_batch_refused;
          Alcotest.test_case "hostile frame contained" `Quick
            (test_e2e_hostile_frame_contained ~shards:1);
          Alcotest.test_case "hostile frame contained, shards 2" `Quick
            (test_e2e_hostile_frame_contained ~shards:2);
          Alcotest.test_case "graceful shutdown" `Quick
            (test_e2e_graceful_shutdown ~shards:1);
          Alcotest.test_case "graceful shutdown, shards 2" `Quick
            (test_e2e_graceful_shutdown ~shards:2);
          Alcotest.test_case "pipelined writer requests, shards 1" `Quick
            (test_e2e_pipelined_writer_requests ~shards:1);
          Alcotest.test_case "pipelined writer requests, shards 2" `Quick
            (test_e2e_pipelined_writer_requests ~shards:2);
        ] );
      ( "observability",
        [
          Alcotest.test_case "http scrape endpoints" `Quick
            test_e2e_http_endpoints;
          Alcotest.test_case "stalled scraper dropped" `Quick
            test_e2e_stalled_scraper_dropped;
          Alcotest.test_case "bit-identical with obs on" `Quick
            test_e2e_obs_bit_identity;
        ] );
      ( "durability",
        [
          Alcotest.test_case "deadline immune to frozen clock" `Quick
            (test_e2e_deadline_immune_to_frozen_clock ~shards:1);
          Alcotest.test_case "deadline immune to frozen clock, shards 2"
            `Quick
            (test_e2e_deadline_immune_to_frozen_clock ~shards:2);
          Alcotest.test_case "journal replayed on create" `Quick
            test_e2e_journal_replayed_on_create;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "bit-identical on every shard" `Quick
            test_sharded_bit_identical;
          Alcotest.test_case "mixed load identical at shards 1 vs 4" `Quick
            test_sharded_mixed_load_identity;
          Alcotest.test_case "drain with in-flight work on every shard"
            `Quick test_sharded_drain_in_flight;
          Alcotest.test_case "update/snapshot-swap race" `Quick
            test_sharded_update_snapshot_race;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "wire round-trips" `Quick
            test_ensemble_wire_roundtrips;
          Alcotest.test_case "BMA bit-identical shards 1 -j 1" `Quick
            test_ensemble_e2e_s1_j1;
          Alcotest.test_case "BMA bit-identical shards 1 -j 8" `Quick
            test_ensemble_e2e_s1_j8;
          Alcotest.test_case "BMA bit-identical shards 4 -j 1" `Quick
            test_ensemble_e2e_s4_j1;
          Alcotest.test_case "BMA bit-identical shards 4 -j 8" `Quick
            test_ensemble_e2e_s4_j8;
          Alcotest.test_case "evidence rides the update path" `Quick
            test_e2e_ensemble_evidence_moves;
          Alcotest.test_case "oversized batch refused" `Quick
            test_e2e_ensemble_oversized_refused;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "percentile fixtures" `Quick
            test_percentile_fixtures;
        ] );
      (* last, so its draws from the shared rng shift no other case *)
      ( "events",
        [
          Alcotest.test_case "slow request event" `Quick
            test_e2e_slow_request_event;
        ] );
    ]
