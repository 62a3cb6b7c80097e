(* The cross-process SIGKILL failover harness: a leader daemon in a
   forked child, its follower in this process. It has an executable of
   its own because OCaml 5 refuses [Unix.fork] once any domain has been
   spawned, and the follower runs on a domain right after the fork: the
   shared pool is pinned to a single inline lane so that the fork
   itself comes before any domain. *)

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

(* ------------------------------------------------------------------ *)
(* Cross-process crash/failover harness                                *)

(* The leader runs in a forked child (forked BEFORE any domain exists
   in this test, so the child inherits no domain machinery); the
   follower runs in-process. After randomized update rounds the leader
   is SIGKILLed mid-flight, the follower is promoted, and every
   surviving store must be byte-identical to an uncrashed in-process
   oracle that applied the same batches. *)
let test_crash_failover_bit_identity () =
  with_temp_root @@ fun root ->
  let s = make_synth () in
  let a = artifact_of s in
  let leader_root = Filename.concat root "leader" in
  let follower_root = Filename.concat root "follower" in
  ignore (Serving.Store.save ~root:leader_root a);
  let laddr = Server.Daemon.Unix_socket (Filename.concat root "l.sock") in
  let faddr = Server.Daemon.Unix_socket (Filename.concat root "f.sock") in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* child: the leader process, to be SIGKILLed *)
      (try
         let t = Server.Daemon.create ~root:leader_root laddr in
         Server.Daemon.run t;
         Unix._exit 0
       with _ -> Unix._exit 2)
  | leader_pid ->
      let reaped = ref false in
      let joined = ref false in
      let follower =
        Server.Daemon.create ~follow:laddr ~root:follower_root faddr
      in
      let fdom = Domain.spawn (fun () -> Server.Daemon.run follower) in
      let drain_follower () =
        if not !joined then begin
          joined := true;
          Server.Daemon.stop follower;
          Domain.join fdom
        end
      in
      Fun.protect
        ~finally:(fun () ->
          drain_follower ();
          if not !reaped then begin
            Unix.kill leader_pid Sys.sigkill;
            ignore (Unix.waitpid [] leader_pid)
          end)
      @@ fun () ->
      let cl = Server.Client.connect laddr in
      let cf = Server.Client.connect faddr in
      Fun.protect
        ~finally:(fun () ->
          Server.Client.close cf;
          Server.Client.close cl)
      @@ fun () ->
      (* randomized rounds: batch sizes drawn from a seeded stream *)
      let rounds = 6 in
      let krng = Stats.Rng.create 4242 in
      let oracle = ref a in
      for tag = 1 to rounds do
        let k = 2 + (Stats.Rng.int krng 5) in
        let xs, f = fresh_batch s ~tag:(500 + tag) ~k in
        ignore (ok "update" (Server.Client.update cl meta ~xs ~f));
        let upd = Serving.Incremental.of_artifact !oracle in
        Serving.Incremental.add_batch upd ~xs ~f;
        oracle := Serving.Incremental.to_artifact upd
      done;
      (* quiesce: the follower must have durably applied every round
         before the kill, so the oracle describes both replicas *)
      wait_until "pre-kill quiesce" (fun () -> follower_seq cf >= rounds);
      Unix.kill leader_pid Sys.sigkill;
      reaped := true;
      (match snd (Unix.waitpid [] leader_pid) with
      | Unix.WSIGNALED sg when sg = Sys.sigkill -> ()
      | _ -> Alcotest.fail "leader did not die by SIGKILL");
      (* the dead leader's root recovers clean (acked updates are
         durable) and holds exactly the oracle's bytes *)
      let report =
        Serving.Recovery.recover ~durability:`Fast ~root:leader_root ()
      in
      check_bool "dead leader root recovers clean" true
        (Serving.Recovery.clean report);
      let oracle_bytes =
        Serving.Artifact.to_string Serving.Artifact.Binary !oracle
      in
      (match Serving.Store.load ~root:leader_root meta with
      | Ok b ->
          check_bool "dead leader store byte-identical to oracle" true
            (String.equal oracle_bytes
               (Serving.Artifact.to_string Serving.Artifact.Binary b))
      | Error e -> Alcotest.failf "dead leader store: %s" e);
      (* failover: promote the follower and keep writing *)
      let was_follower, seq = ok "promote" (Server.Client.promote cf) in
      check_bool "survivor was the follower" true was_follower;
      check_int "promoted at the quiesced sequence" rounds seq;
      let xs, f = fresh_batch s ~tag:900 ~k:3 in
      let rev, _ =
        ok "post-failover update" (Server.Client.update cf meta ~xs ~f)
      in
      check_int "new leader applies updates"
        (a.Serving.Artifact.rev + rounds + 1)
        rev;
      (let upd = Serving.Incremental.of_artifact !oracle in
       Serving.Incremental.add_batch upd ~xs ~f;
       oracle := Serving.Incremental.to_artifact upd);
      (* the promoted replica serves the oracle's fingerprint *)
      let q =
        let r = Polybasis.Basis.dim s.basis in
        let qrng = Stats.Rng.create 883 in
        Linalg.Mat.of_rows
          (List.init 64 (fun _ -> Stats.Rng.gaussian_vec qrng r))
      in
      let direct =
        Serving.Predictor.predict (Serving.Predictor.of_artifact !oracle) q
      in
      let served = ok "promoted predict" (Server.Client.predict cf meta q) in
      check_string "promoted replica fingerprint matches oracle"
        (Serving.Artifact.fingerprint direct)
        (Serving.Artifact.fingerprint served);
      (* ... and its store is byte-identical to the oracle too (checked
         after the daemon drains so the save is complete) *)
      drain_follower ();
      match Serving.Store.load ~root:follower_root meta with
      | Ok b ->
          check_bool "promoted store byte-identical to oracle" true
            (String.equal
               (Serving.Artifact.to_string Serving.Artifact.Binary !oracle)
               (Serving.Artifact.to_string Serving.Artifact.Binary b))
      | Error e -> Alcotest.failf "promoted store: %s" e


let () =
  Parallel.Pool.set_default_jobs 1;
  Alcotest.run "failover"
    [
      ( "failover",
        [
          Alcotest.test_case "SIGKILL leader, promote, byte-ident" `Quick
            test_crash_failover_bit_identity;
        ] );
    ]
