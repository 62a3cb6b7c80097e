(* Tests for the replication subsystem: wire opcodes for the
   subscription/entry-stream protocol, backoff determinism, leader-side
   source bookkeeping, the follower's entry rule and snapshot install,
   and an in-process leader/follower pair proving bit-identical reads
   off the follower. The fork-based cases live in test_fork and
   test_failover. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let rng = Stats.Rng.create 20130608

(* Same small fitted problem as test_server: enough structure to
   exercise the variance path, small enough to stream fast. *)
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
  { Serving.Artifact.circuit = "test"; metric = "m"; scale = "repl"; seed = 7 }

let artifact_of (s : synth) =
  Serving.Artifact.of_fit ~meta ~basis:s.basis ~prior:s.prior ~hyper:s.hyper
    ~g:s.g ~f:s.f ()

(* A fresh sample batch consistent with the synthetic truth, keyed by
   [tag] so every round of a replication run folds in distinct data. *)
let fresh_batch (s : synth) ~tag ~k =
  let rng = Stats.Rng.create (7000 + tag) in
  let r = Polybasis.Basis.dim s.basis in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r in
  let f =
    Array.init k (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
          s.truth)
  in
  (xs, f)

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-repl-test-%d" (Unix.getpid ()))
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

let ok what = function
  | Ok v -> v
  | Error (e : Server.Wire.error) ->
      Alcotest.failf "%s: %s: %s" what
        (Server.Wire.error_code_name e.code)
        e.message

(* ------------------------------------------------------------------ *)
(* Wire codec: replication opcodes                                     *)

let frame_of str =
  match Server.Wire.peek str ~off:0 with
  | `Frame (f, next) ->
      check_int "frame consumed the whole string" (String.length str) next;
      f
  | `Need n -> Alcotest.failf "incomplete frame: need %d more bytes" n
  | `Bad msg -> Alcotest.failf "bad frame: %s" msg

let roundtrip_request req =
  let s = Server.Wire.encode_request ~id:42 req in
  match Server.Wire.decode_request (frame_of s) with
  | Error e -> Alcotest.failf "decode_request failed: %s" e
  | Ok got -> got

let test_replication_request_roundtrips () =
  let other = { meta with Serving.Artifact.metric = "power" } in
  (match
     roundtrip_request
       (Server.Wire.Subscribe_req { vector = [ (meta, 3); (other, 0) ] })
   with
  | Server.Wire.Subscribe_req { vector = [ (m1, 3); (m2, 0) ] } ->
      check_bool "first meta" true (m1 = meta);
      check_bool "second meta" true (m2 = other)
  | _ -> Alcotest.fail "subscribe round-trip");
  (match roundtrip_request (Server.Wire.Subscribe_req { vector = [] }) with
  | Server.Wire.Subscribe_req { vector = [] } -> ()
  | _ -> Alcotest.fail "empty-vector subscribe round-trip");
  (match roundtrip_request (Server.Wire.Repl_ack_req { seq = 12345 }) with
  | Server.Wire.Repl_ack_req { seq = 12345 } -> ()
  | _ -> Alcotest.fail "repl_ack round-trip");
  (match roundtrip_request Server.Wire.Promote_req with
  | Server.Wire.Promote_req -> ()
  | _ -> Alcotest.fail "promote round-trip");
  (* a negative revision/sequence can never be legal state *)
  (match
     Server.Wire.decode_request
       (frame_of
          (Server.Wire.encode_request ~id:1
             (Server.Wire.Subscribe_req { vector = [ (meta, -1) ] })))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative revision accepted");
  match
    Server.Wire.decode_request
      (frame_of
         (Server.Wire.encode_request ~id:1
            (Server.Wire.Repl_ack_req { seq = -7 })))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative ack sequence accepted"

let roundtrip_push p =
  let s = Server.Wire.encode_push p in
  let f = frame_of s in
  check_bool "kind byte is in the push space" true
    (Server.Wire.is_push_kind f.Server.Wire.frame_kind);
  match Server.Wire.decode_push f with
  | Error e -> Alcotest.failf "decode_push failed: %s" e
  | Ok got -> got

let test_push_roundtrips () =
  (match
     roundtrip_push
       (Server.Wire.Snapshot_chunk
          { meta; rev = 4; total = 10; offset = 3; data = "abcd" })
   with
  | Server.Wire.Snapshot_chunk
      { meta = m; rev = 4; total = 10; offset = 3; data = "abcd" } ->
      check_bool "snapshot meta" true (m = meta)
  | _ -> Alcotest.fail "snapshot_chunk round-trip");
  (* a streamed WAL record survives the trip and still checksums *)
  let s = make_synth ~k:8 ~r:4 () in
  let xs, f = fresh_batch s ~tag:1 ~k:3 in
  let entry = { Serving.Journal.meta; base_rev = 2; xs; f } in
  let encoded = Serving.Journal.encode_entry entry in
  (match
     roundtrip_push
       (Server.Wire.Journal_entry { seq = 9; ts = 1234.5; entry = encoded })
   with
  | Server.Wire.Journal_entry { seq = 9; ts = 1234.5; entry = e } -> (
      match Serving.Journal.decode_entry e with
      | Error msg -> Alcotest.failf "shipped entry did not decode: %s" msg
      | Ok back ->
          check_bool "entry meta" true (back.Serving.Journal.meta = meta);
          check_int "entry base_rev" 2 back.Serving.Journal.base_rev;
          check_bool "entry responses bit-identical" true
            (Array.for_all2 Float.equal f back.Serving.Journal.f))
  | _ -> Alcotest.fail "journal_entry round-trip");
  (* a corrupted record is caught by the fnv64 check, not misapplied *)
  let flipped = Bytes.of_string encoded in
  Bytes.set flipped
    (Bytes.length flipped - 1)
    (Char.chr (Char.code (Bytes.get flipped (Bytes.length flipped - 1)) lxor 1));
  (match Serving.Journal.decode_entry (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit-flipped entry passed the checksum");
  (match
     roundtrip_push
       (Server.Wire.Repl_status { seq = 77; snapshots = 2; ts = 9.25 })
   with
  | Server.Wire.Repl_status { seq = 77; snapshots = 2; ts = 9.25 } -> ()
  | _ -> Alcotest.fail "repl_status round-trip");
  (match roundtrip_push (Server.Wire.Repl_heartbeat { seq = 5; ts = 2.5 }) with
  | Server.Wire.Repl_heartbeat { seq = 5; ts = 2.5 } -> ()
  | _ -> Alcotest.fail "repl_heartbeat round-trip");
  (* impossible chunk geometry must be refused *)
  let bad_geometry =
    Server.Wire.encode_push
      (Server.Wire.Snapshot_chunk
         { meta; rev = 1; total = 4; offset = 3; data = "abcd" })
  in
  (match Server.Wire.decode_push (frame_of bad_geometry) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "chunk overrunning its total accepted");
  (* garbage bodies decode to Error, never raise *)
  let garbage =
    {
      Server.Wire.frame_version = 2;
      frame_kind = 33 (* journal_entry *);
      frame_id = 0;
      frame_deadline_ms = 0;
      frame_trace = 0;
      frame_span = 0;
      body = String.make 32 '\xfe';
    }
  in
  (match Server.Wire.decode_push garbage with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage push body decoded"
  | exception e ->
      Alcotest.failf "decode_push raised %s" (Printexc.to_string e));
  check_bool "response kinds are not push kinds" false
    (Server.Wire.is_push_kind 1)

let test_not_leader_roundtrip () =
  let msg = "not the leader; updates are accepted at unix:///tmp/l.sock" in
  let encoded =
    Server.Wire.encode_response ~id:5
      (Server.Wire.Error
         { Server.Wire.code = Server.Wire.Not_leader; message = msg })
  in
  match
    Server.Wire.decode_response ~expect:Server.Wire.Update (frame_of encoded)
  with
  | Ok (Server.Wire.Error e) ->
      check_bool "code" true (e.Server.Wire.code = Server.Wire.Not_leader);
      check_string "message" msg e.Server.Wire.message;
      (match Server.Client.leader_hint e with
      | Some (Server.Daemon.Unix_socket "/tmp/l.sock") -> ()
      | _ -> Alcotest.fail "leader_hint did not recover the address");
      check_bool "no hint on other errors" true
        (Server.Client.leader_hint
           { e with Server.Wire.code = Server.Wire.Busy }
        = None)
  | _ -> Alcotest.fail "not_leader round-trip"

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)

let test_backoff_deterministic () =
  let policy =
    {
      Replication.Backoff.base_s = 0.1;
      multiplier = 2.;
      max_s = 1.;
      jitter = 0.2;
      max_attempts = 4;
    }
  in
  let a = Replication.Backoff.create ~policy ~seed:99 () in
  let b = Replication.Backoff.create ~policy ~seed:99 () in
  let delays = Array.init 8 (fun _ -> Replication.Backoff.next_delay_s a) in
  (* same seed, same sequence: tests can replay schedules exactly *)
  Array.iter
    (fun d ->
      check_bool "deterministic given the seed" true
        (Float.equal d (Replication.Backoff.next_delay_s b)))
    delays;
  (* every delay respects the jittered envelope of the capped curve *)
  Array.iteri
    (fun i d ->
      let ideal = Float.min policy.max_s (0.1 *. (2. ** float_of_int i)) in
      check_bool
        (Printf.sprintf "delay %d within jitter envelope" i)
        true
        (d >= ideal *. 0.8 -. 1e-12 && d <= ideal *. 1.2 +. 1e-12))
    delays;
  check_bool "later delays sit at the cap" true
    (delays.(6) <= 1.2 && delays.(6) >= 0.8);
  check_int "attempts counted" 8 (Replication.Backoff.attempts a);
  check_bool "exhausted after max_attempts" true
    (Replication.Backoff.exhausted a);
  Replication.Backoff.reset a;
  check_int "reset clears attempts" 0 (Replication.Backoff.attempts a);
  check_bool "reset rearms" false (Replication.Backoff.exhausted a);
  let after_reset = Replication.Backoff.next_delay_s a in
  check_bool "reset restarts from base" true
    (after_reset >= 0.08 -. 1e-12 && after_reset <= 0.12 +. 1e-12);
  (* invalid policies are refused up front *)
  match
    Replication.Backoff.create
      ~policy:{ policy with Replication.Backoff.jitter = 1.5 }
      ()
  with
  | _ -> Alcotest.fail "jitter >= 1 accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Source bookkeeping                                                  *)

let test_source_catchup_and_acks () =
  let s = make_synth ~k:10 ~r:5 () in
  let a = artifact_of s in
  let other = { meta with Serving.Artifact.metric = "power" } in
  let b = { a with Serving.Artifact.meta = other; rev = 3 } in
  (* behind on [a], current on [b]: only [a] ships *)
  let plan =
    Replication.Source.plan_catchup ~have:[ a; b ]
      ~vector:[ (meta, a.Serving.Artifact.rev - 1); (other, 3) ]
  in
  (match plan with
  | [ (m, rev, bytes) ] ->
      check_bool "stale model planned" true (m = meta);
      check_int "at the leader's revision" a.Serving.Artifact.rev rev;
      (match Serving.Artifact.of_string bytes with
      | Ok back ->
          check_bool "snapshot bytes round-trip" true
            (Array.for_all2 Float.equal a.Serving.Artifact.coeffs
               back.Serving.Artifact.coeffs)
      | Error e -> Alcotest.failf "snapshot bytes did not decode: %s" e)
  | plan -> Alcotest.failf "expected 1 snapshot, got %d" (List.length plan));
  (* unknown model ships; a follower that is ahead is left alone *)
  check_int "absent model ships" 2
    (List.length (Replication.Source.plan_catchup ~have:[ a; b ] ~vector:[]));
  check_int "ahead follower skipped" 0
    (List.length
       (Replication.Source.plan_catchup ~have:[ a ]
          ~vector:[ (meta, a.Serving.Artifact.rev + 5) ]));
  let src : int Replication.Source.t = Replication.Source.create () in
  check_bool "no subscribers, no min ack" true
    (Replication.Source.min_acked src = None);
  Replication.Source.register src 1 ~acked:10;
  Replication.Source.register src 2 ~acked:12;
  check_int "two subscribers" 2 (Replication.Source.count src);
  check_bool "min ack is the slowest" true
    (Replication.Source.min_acked src = Some 10);
  Replication.Source.ack src 1 ~seq:15;
  check_bool "acks advance" true
    (Replication.Source.min_acked src = Some 12);
  Replication.Source.ack src 1 ~seq:3;
  check_bool "acks never move backwards" true
    (Replication.Source.min_acked src = Some 12);
  Replication.Source.register src 1 ~acked:0;
  check_int "re-register keeps one slot" 2 (Replication.Source.count src);
  check_bool "re-register resets the ack" true
    (Replication.Source.min_acked src = Some 0);
  Replication.Source.drop src 1;
  check_int "drop removes" 1 (Replication.Source.count src);
  Replication.Source.drop src 99 (* unknown: ignored *);
  Replication.Source.drop src 2;
  check_bool "empty again" true (Replication.Source.min_acked src = None)

(* ------------------------------------------------------------------ *)
(* Follower apply                                                      *)

(* A streamed entry goes through the same [Serving.Update] rule and
   commit as a leader update; snapshots install through
   [Replication.Apply.snapshot]. *)
let test_apply_entry_and_snapshot () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let journal = Serving.Journal.open_ ~durability:`Fast ~root () in
  let xs, f = fresh_batch s ~tag:30 ~k:5 in
  let entry =
    { Serving.Journal.meta; base_rev = a.Serving.Artifact.rev; xs; f }
  in
  (* the reference: the same rank-1 update applied directly *)
  let upd = Serving.Incremental.of_artifact a in
  Serving.Incremental.add_batch upd ~xs ~f;
  let reference = Serving.Incremental.to_artifact upd in
  let stored_rev () =
    match Serving.Store.load ~root meta with
    | Ok b -> b.Serving.Artifact.rev
    | Error e -> Alcotest.failf "store: %s" e
  in
  (match Serving.Update.rule ~rev:(stored_rev ()) entry with
  | Serving.Update.Apply ->
      let b =
        Serving.Update.commit ~durability:`Fast ~root journal a entry
      in
      check_int "revision bumped" (a.Serving.Artifact.rev + 1)
        b.Serving.Artifact.rev;
      check_bool "apply is the exact incremental update" true
        (Array.for_all2 Float.equal reference.Serving.Artifact.coeffs
           b.Serving.Artifact.coeffs);
      check_int "store holds the update" b.Serving.Artifact.rev (stored_rev ())
  | _ -> Alcotest.fail "entry did not apply");
  (* the journal was truncated after the durable save: nothing replays *)
  let back, _ = Serving.Journal.read ~root in
  check_int "journal truncated after apply" 0 (List.length back);
  (* duplicate delivery: already past base_rev *)
  check_bool "duplicate is stale" true
    (Serving.Update.rule ~rev:(stored_rev ()) entry = Serving.Update.Stale);
  (* a revision hole cannot apply *)
  check_bool "revision hole is a gap" true
    (Serving.Update.rule ~rev:(stored_rev ())
       { entry with Serving.Journal.base_rev = a.Serving.Artifact.rev + 7 }
    = Serving.Update.Gap);
  (* a refused commit rolls the journal back and re-raises *)
  (match
     Serving.Update.commit ~durability:`Fast ~root journal a
       { entry with Serving.Journal.f = [| 1. |] }
   with
  | _ -> Alcotest.fail "mismatched batch committed"
  | exception Invalid_argument _ -> ());
  let back, _ = Serving.Journal.read ~root in
  check_int "refused commit leaves no journal entry" 0 (List.length back);
  check_int "refused commit leaves the store" (a.Serving.Artifact.rev + 1)
    (stored_rev ());
  Serving.Journal.close journal;
  (* snapshots: a newer one installs, an older one is a no-op *)
  let newer = { reference with Serving.Artifact.rev = 50 } in
  (match
     Replication.Apply.snapshot ~durability:`Fast ~root
       (Serving.Artifact.to_string Serving.Artifact.Binary newer)
   with
  | Ok b -> check_int "snapshot installed" 50 b.Serving.Artifact.rev
  | Error e -> Alcotest.failf "snapshot refused: %s" e);
  (match
     Replication.Apply.snapshot ~durability:`Fast ~root
       (Serving.Artifact.to_string Serving.Artifact.Binary a)
   with
  | Ok b ->
      check_int "older snapshot skipped, local kept" 50 b.Serving.Artifact.rev
  | Error e -> Alcotest.failf "older snapshot errored: %s" e);
  match Replication.Apply.snapshot ~durability:`Fast ~root "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage snapshot installed"

(* ------------------------------------------------------------------ *)
(* In-process leader/follower pair                                     *)

let with_pair ~root f =
  (* materialize the shared pool before any server domain spawns *)
  ignore (Parallel.Pool.run (Array.init 8 (fun i () -> i)));
  let leader_root = Filename.concat root "leader" in
  let follower_root = Filename.concat root "follower" in
  let laddr = Server.Daemon.Unix_socket (Filename.concat root "l.sock") in
  let faddr = Server.Daemon.Unix_socket (Filename.concat root "f.sock") in
  let config =
    { Server.Daemon.default_config with Server.Daemon.durability = `Fast }
  in
  let leader = Server.Daemon.create ~config ~root:leader_root laddr in
  let ld = Domain.spawn (fun () -> Server.Daemon.run leader) in
  let follower =
    Server.Daemon.create ~config ~follow:laddr ~root:follower_root faddr
  in
  let fd = Domain.spawn (fun () -> Server.Daemon.run follower) in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop follower;
      Server.Daemon.stop leader;
      Domain.join fd;
      Domain.join ld)
    (fun () -> f ~leader ~follower ~laddr ~faddr)

let wait_until ?(timeout_s = 15.) what cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let follower_seq cf =
  match Server.Client.stats cf with
  | Ok st -> st.Server.Client.journal_seq
  | Error _ -> -1

let test_pair_catchup_stream_and_promote () =
  with_temp_root @@ fun root ->
  let s = make_synth () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root:(Filename.concat root "leader") a);
  with_pair ~root @@ fun ~leader:_ ~follower ~laddr ~faddr ->
  let cl = Server.Client.connect laddr in
  let cf = Server.Client.connect faddr in
  Fun.protect
    ~finally:(fun () ->
      Server.Client.close cf;
      Server.Client.close cl)
  @@ fun () ->
  (* snapshot catch-up: the empty follower acquires the model *)
  wait_until "snapshot catch-up" (fun () ->
      match Server.Client.list_models cf with
      | Ok infos ->
          List.exists
            (fun (i : Server.Wire.model_info) -> i.Server.Wire.meta = meta)
            infos
      | Error _ -> false);
  (* roles are what they claim *)
  let stl = ok "leader stats" (Server.Client.stats cl) in
  check_string "leader role" "leader" stl.Server.Client.role;
  let stf = ok "follower stats" (Server.Client.stats cf) in
  check_string "follower role" "follower" stf.Server.Client.role;
  (match Server.Daemon.role follower with
  | `Follower l -> check_bool "follower names its leader" true (l = laddr)
  | `Leader -> Alcotest.fail "follower believes it is the leader");
  (* stream three updates through the leader, tracking the oracle *)
  let oracle = ref a in
  for tag = 1 to 3 do
    let xs, f = fresh_batch s ~tag:(100 + tag) ~k:4 in
    let rev, _ = ok "update" (Server.Client.update cl meta ~xs ~f) in
    check_int "leader revision advances" (a.Serving.Artifact.rev + tag) rev;
    let upd = Serving.Incremental.of_artifact !oracle in
    Serving.Incremental.add_batch upd ~xs ~f;
    oracle := Serving.Incremental.to_artifact upd
  done;
  wait_until "entry stream drain" (fun () -> follower_seq cf >= 3);
  (* the follower answers the same 64-query fingerprint as a direct
     Predictor over the oracle artifact — the bit-identity bar *)
  let q =
    let r = Polybasis.Basis.dim s.basis in
    let qrng = Stats.Rng.create 881 in
    Linalg.Mat.of_rows (List.init 64 (fun _ -> Stats.Rng.gaussian_vec qrng r))
  in
  let direct =
    Serving.Predictor.predict (Serving.Predictor.of_artifact !oracle) q
  in
  let served = ok "follower predict" (Server.Client.predict cf meta q) in
  check_string "follower fingerprint matches direct predictor"
    (Serving.Artifact.fingerprint direct)
    (Serving.Artifact.fingerprint served);
  let dm, ds = ok "follower predict+std" (Server.Client.predict_with_std cf meta q) in
  check_bool "follower means (variance path) bit-identical" true
    (Array.for_all2 Float.equal direct dm);
  check_bool "follower stds finite" true (Array.for_all Float.is_finite ds);
  (* updates are refused with Not_leader naming the leader *)
  let xs, f = fresh_batch s ~tag:200 ~k:4 in
  (match Server.Client.update cf meta ~xs ~f with
  | Error e ->
      check_bool "refusal is not_leader" true
        (e.Server.Wire.code = Server.Wire.Not_leader);
      (match Server.Client.leader_hint e with
      | Some l -> check_bool "refusal names the leader" true (l = laddr)
      | None -> Alcotest.fail "not_leader carries no parseable address")
  | Ok _ -> Alcotest.fail "follower accepted an update");
  (* ... and update_with_redirect transparently lands it on the leader *)
  let result, redirected = Server.Client.update_with_redirect cf meta ~xs ~f in
  let rev, _ = ok "redirected update" result in
  check_int "redirect applied at the leader" (a.Serving.Artifact.rev + 4) rev;
  check_bool "redirect reported" true (redirected = Some laddr);
  (let upd = Serving.Incremental.of_artifact !oracle in
   Serving.Incremental.add_batch upd ~xs ~f;
   oracle := Serving.Incremental.to_artifact upd);
  wait_until "redirected entry drain" (fun () -> follower_seq cf >= 4);
  (* promote: the follower flips to leader and accepts updates *)
  let was_follower, seq = ok "promote" (Server.Client.promote cf) in
  check_bool "was a follower" true was_follower;
  check_int "promotion at the drained sequence" 4 seq;
  let stf = ok "stats after promote" (Server.Client.stats cf) in
  check_string "role after promote" "leader" stf.Server.Client.role;
  let xs, f = fresh_batch s ~tag:300 ~k:4 in
  let rev, _ = ok "post-promote update" (Server.Client.update cf meta ~xs ~f) in
  check_int "promoted daemon applies updates" (a.Serving.Artifact.rev + 5) rev;
  (* promoting a leader is a harmless no-op *)
  let was_follower, _ = ok "re-promote" (Server.Client.promote cf) in
  check_bool "already leader" false was_follower

(* ------------------------------------------------------------------ *)
(* The follower's entry rule, end to end                               *)

(* The follower checks each streamed entry's base revision against the
   model it serves. A duplicate (stale) is acked without applying; a
   revision hole (gap) or a model it holds no base for drops the link,
   and the resubscription's snapshot catch-up repairs the store. *)
let test_pair_follower_entry_rule () =
  Obs.Metrics.enable ();
  Obs.Events.enable ();
  Obs.Events.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Events.disable ();
      Obs.Events.clear ();
      Serving.Calibration.reset ())
  @@ fun () ->
  with_temp_root @@ fun root ->
  let leader_root = Filename.concat root "leader" in
  let follower_root = Filename.concat root "follower" in
  let s = make_synth () in
  let a = artifact_of s in
  let gap_meta = { meta with Serving.Artifact.metric = "gap" } in
  let ghost_meta = { meta with Serving.Artifact.circuit = "ghost" } in
  let dup_xs, dup_f = fresh_batch s ~tag:400 ~k:4 in
  ignore (Serving.Store.save ~root:leader_root a);
  (* the follower already holds the update the leader is about to
     stream, and an older revision of [gap_meta] than the one the
     leader will update *)
  ignore
    (Serving.Store.save ~root:follower_root
       (Serving.Update.fold a
          {
            Serving.Journal.meta;
            base_rev = a.Serving.Artifact.rev;
            xs = dup_xs;
            f = dup_f;
          }));
  ignore
    (Serving.Store.save ~root:follower_root
       { a with Serving.Artifact.meta = gap_meta });
  with_pair ~root @@ fun ~leader:_ ~follower:_ ~laddr ~faddr ->
  let cl = Server.Client.connect laddr in
  let cf = Server.Client.connect faddr in
  Fun.protect
    ~finally:(fun () ->
      Server.Client.close cf;
      Server.Client.close cl)
  @@ fun () ->
  let counter name =
    match Obs.Metrics.find_counter name with
    | Some c -> Obs.Metrics.counter_value c
    | None -> Alcotest.failf "%s not registered" name
  in
  let subscriptions () =
    List.length
      (List.filter
         (fun (e : Obs.Events.event) -> e.kind = "subscriber_connect")
         (fst (Obs.Events.snapshot ())))
  in
  let served_rev m =
    match Server.Client.list_models cf with
    | Ok infos -> (
        match
          List.find_opt (fun (i : Server.Wire.model_info) -> i.meta = m) infos
        with
        | Some i -> i.Server.Wire.rev
        | None -> -1)
    | Error _ -> -1
  in
  let update m ~xs ~f =
    fst (ok "leader update" (Server.Client.update cl m ~xs ~f))
  in
  let stored_bytes root m =
    match Serving.Store.find ~root m with
    | None ->
        Alcotest.failf "no %s artifact under %s" m.Serving.Artifact.circuit
          root
    | Some path -> (
        match Serving.Store.read_file path with
        | Ok b -> b
        | Error e -> Alcotest.fail e)
  in
  let same_store what m =
    check_bool what true
      (String.equal (stored_bytes leader_root m)
         (stored_bytes follower_root m))
  in
  (* the follower is ahead on [meta]: no catch-up snapshot, a live link *)
  wait_until "subscription" (fun () -> subscriptions () >= 1);
  let applied0 = counter "bmf_repl_applied_total" in
  let stale0 = counter "bmf_repl_stale_total" in
  (* stale: the duplicate is acked, not applied *)
  ignore (update meta ~xs:dup_xs ~f:dup_f);
  wait_until "duplicate acked" (fun () -> follower_seq cf >= 1);
  check_bool "duplicate counted stale" true
    (counter "bmf_repl_stale_total" = stale0 +. 1.);
  check_bool "duplicate not applied" true
    (counter "bmf_repl_applied_total" = applied0);
  check_int "duplicate keeps the link" 1 (subscriptions ());
  same_store "duplicate: stores byte-identical" meta;
  (* gap: the leader's [gap_meta] is three revisions past the
     follower's, with no entries in between *)
  ignore
    (Serving.Store.save ~root:leader_root
       {
         a with
         Serving.Artifact.meta = gap_meta;
         rev = a.Serving.Artifact.rev + 3;
       });
  let xs, f = fresh_batch s ~tag:401 ~k:4 in
  let gap_rev = update gap_meta ~xs ~f in
  wait_until "gap repaired by snapshot" (fun () ->
      served_rev gap_meta = gap_rev);
  check_bool "gap not applied" true
    (counter "bmf_repl_applied_total" = applied0);
  check_bool "gap resubscribed" true (subscriptions () >= 2);
  same_store "gap: stores byte-identical" gap_meta;
  (* unknown model: the follower holds no base for [ghost_meta] *)
  let subscribed = subscriptions () in
  ignore
    (Serving.Store.save ~root:leader_root
       { a with Serving.Artifact.meta = ghost_meta });
  let xs, f = fresh_batch s ~tag:402 ~k:4 in
  let ghost_rev = update ghost_meta ~xs ~f in
  wait_until "unknown model repaired by snapshot" (fun () ->
      served_rev ghost_meta = ghost_rev);
  check_bool "unknown model not applied" true
    (counter "bmf_repl_applied_total" = applied0);
  check_bool "unknown model resubscribed" true (subscriptions () > subscribed);
  same_store "unknown model: stores byte-identical" ghost_meta;
  (* the repaired link applies the next entry *)
  let xs, f = fresh_batch s ~tag:403 ~k:4 in
  let rev = update meta ~xs ~f in
  wait_until "entry applied" (fun () -> served_rev meta = rev);
  check_bool "next entry applied" true
    (counter "bmf_repl_applied_total" = applied0 +. 1.);
  same_store "after resync: stores byte-identical" meta

(* ------------------------------------------------------------------ *)
(* Distributed trace propagation + replication telemetry               *)

let test_pair_trace_propagation_and_telemetry () =
  (* One traced client update must leave spans at the client, the
     leader and the follower that all share one trace id — the context
     rides the v2 request frame into the leader and the journal-entry
     push onto the follower. Calibration and lag telemetry publish on
     the way. *)
  Obs.Trace.start ();
  Obs.Metrics.enable ();
  Obs.Events.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.clear ();
      Obs.Metrics.disable ();
      Obs.Events.disable ();
      Obs.Events.clear ();
      Serving.Calibration.reset ())
  @@ fun () ->
  with_temp_root @@ fun root ->
  let s = make_synth () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root:(Filename.concat root "leader") a);
  (with_pair ~root @@ fun ~leader:_ ~follower:_ ~laddr ~faddr ->
   let cl = Server.Client.connect laddr in
   let cf = Server.Client.connect faddr in
   Fun.protect
     ~finally:(fun () ->
       Server.Client.close cf;
       Server.Client.close cl)
   @@ fun () ->
   wait_until "snapshot catch-up" (fun () ->
       match Server.Client.list_models cf with
       | Ok infos ->
           List.exists
             (fun (i : Server.Wire.model_info) -> i.Server.Wire.meta = meta)
             infos
       | Error _ -> false);
   let xs, f = fresh_batch s ~tag:900 ~k:4 in
   ignore (ok "traced update" (Server.Client.update cl meta ~xs ~f));
   wait_until "entry applied" (fun () -> follower_seq cf >= 1);
   (* the follower's apply telemetry counted the entry and timed it *)
   (match Obs.Metrics.find_counter "bmf_repl_applied_total" with
   | Some c ->
       check_bool "applied counter moved" true
         (Obs.Metrics.counter_value c >= 1.)
   | None -> Alcotest.fail "bmf_repl_applied_total not registered");
   check_bool "apply latency observed" true
     (Obs.Metrics.histogram_count
        (Obs.Metrics.histogram "bmf_repl_apply_seconds")
     >= 1);
   (* calibration scored the update against the pre-update posterior on
      both replicas (leader at commit, follower at apply) *)
   let cal = Serving.Calibration.stats meta in
   check_bool "calibration recorded the update" true (cal.samples >= 4);
   check_bool "calibration gauge published" true
     (Obs.Metrics.find_gauge "bmf_calibration_coverage_1s"
        ~labels:[ ("model", Serving.Calibration.model_label meta) ]
     <> None);
   (* the follower's lag gauge exists and reads 0 once drained *)
   match Obs.Metrics.find_gauge "bmf_repl_follower_lag_entries" with
   | None -> Alcotest.fail "follower lag gauge not registered"
   | Some g ->
       wait_until "lag drains to zero" (fun () ->
           Float.equal 0. (Obs.Metrics.gauge_value g)));
  (* the pair has wound down: every daemon domain flushed its trace
     lane on exit, so the full distributed trace is visible *)
  let evs = Obs.Trace.events () in
  let find_trace name =
    List.filter_map
      (function
        | Obs.Trace.Complete { name = n; trace; _ } when n = name ->
            Some trace
        | _ -> None)
      evs
  in
  let cli = find_trace "cli_update" in
  check_bool "client span recorded" true (cli <> []);
  let t = List.hd cli in
  check_bool "client span carries a trace id" true (t > 0);
  let shares name =
    List.exists (fun tr -> tr = t) (find_trace name)
  in
  check_bool "leader request span joins the trace" true (shares "srv_request");
  check_bool "leader kernel span joins the trace" true (shares "srv_kernel");
  check_bool "follower apply span joins the trace" true (shares "repl_apply");
  (* the event ring saw the link come up *)
  let events, _ = Obs.Events.snapshot () in
  check_bool "link_up event emitted" true
    (List.exists (fun (e : Obs.Events.event) -> e.kind = "link_up") events)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "replication"
    [
      ( "wire",
        [
          Alcotest.test_case "replication request round-trips" `Quick
            test_replication_request_roundtrips;
          Alcotest.test_case "push round-trips and checksums" `Quick
            test_push_roundtrips;
          Alcotest.test_case "not_leader carries the leader address" `Quick
            test_not_leader_roundtrip;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic capped jittered sched" `Quick
            test_backoff_deterministic;
        ] );
      ( "source",
        [
          Alcotest.test_case "catch-up planning and ack bookkeeping" `Quick
            test_source_catchup_and_acks;
        ] );
      ( "apply",
        [
          Alcotest.test_case "entry apply, stale, gap, snapshot" `Quick
            test_apply_entry_and_snapshot;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "catch-up, stream, bit-identity, pro" `Quick
            test_pair_catchup_stream_and_promote;
          Alcotest.test_case "trace propagation and telemetry" `Quick
            test_pair_trace_propagation_and_telemetry;
          Alcotest.test_case "follower stale, gap, unknown model" `Quick
            test_pair_follower_entry_rule;
        ] );
    ]
