(* Fork-based tests: crash fault injection at every step of the store
   and update write protocols and of a follower's catch-up and apply,
   and the promise that a [--shards 1] daemon spawns no domain. OCaml 5
   refuses [Unix.fork] once any domain has been spawned, so nothing in
   this executable spawns one: the shared pool is pinned to a single
   inline lane before any case runs, and the cases do not depend on
   their order. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rng = Stats.Rng.create 20130613

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

(* [k] late-stage samples consistent with the synthetic truth, keyed by
   [tag]. *)
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

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-fork-test-%d" (Unix.getpid ()))
  in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* ------------------------------------------------------------------ *)
(* Crash fault injection: SIGKILL at every step of the write protocol  *)

(* Run [f] in a forked child with the crashpoint armed at budget [n]. *)
let in_crashed_child ~n f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         Serving.Crashpoint.arm n;
         f ();
         Serving.Crashpoint.disarm ();
         Unix._exit 0
       with _ -> Unix._exit 2)
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WSIGNALED s when s = Sys.sigkill -> `Killed
      | Unix.WEXITED 0 -> `Clean
      | Unix.WEXITED c -> `Other (Printf.sprintf "exit %d" c)
      | Unix.WSIGNALED s -> `Other (Printf.sprintf "signal %d" s)
      | Unix.WSTOPPED s -> `Other (Printf.sprintf "stopped %d" s))

(* Sweep n = 0, 1, 2, ... so the child is SIGKILLed before every
   distinct write/fsync/rename/unlink in [f]; after every kill the
   parent must be able to recover the store to a verified state that
   [invariant] accepts. Returns once the child runs to completion. *)
let sweep_crashpoints ~root ~invariant f =
  let budget_cap = 256 in
  let rec go n =
    if n > budget_cap then
      Alcotest.failf "crashpoint budget not exhausted after %d steps"
        budget_cap;
    match in_crashed_child ~n f with
    | `Other what -> Alcotest.failf "child died oddly (budget %d): %s" n what
    | outcome ->
        let report = Serving.Recovery.recover ~durability:`Fast ~root () in
        check_bool
          (Printf.sprintf "recovery clean after kill at step %d" n)
          true
          (Serving.Recovery.clean report);
        invariant ~n ~report;
        if outcome = `Killed then go (n + 1) else n
  in
  go 0

(* The number of durability steps [f] takes: the smallest budget at
   which a crashed child runs it to completion. *)
let count_steps f =
  let rec go n =
    if n > 256 then Alcotest.fail "step count budget not exhausted";
    match in_crashed_child ~n f with
    | `Clean -> n
    | `Killed -> go (n + 1)
    | `Other what -> Alcotest.failf "child died oddly (budget %d): %s" n what
  in
  go 0

let test_crashpoint_env_arming () =
  Fun.protect ~finally:(fun () ->
      Unix.putenv Serving.Crashpoint.env_var "0";
      (* latch disarmed so the poisoned environment is never re-read *)
      Serving.Crashpoint.disarm ())
  @@ fun () ->
  (* a malformed value must fail loudly, not silently disable the
     harness *)
  Unix.putenv Serving.Crashpoint.env_var "banana";
  Serving.Crashpoint.reset ();
  (match Serving.Crashpoint.armed () with
  | exception Failure msg ->
      check_bool "failure names the variable" true
        (try
           ignore
             (Str.search_forward
                (Str.regexp_string Serving.Crashpoint.env_var)
                msg 0);
           true
         with Not_found -> false)
  | _ -> Alcotest.fail "malformed budget silently accepted");
  (* a well-formed value arms the process: in a fork, two steps must
     pass and the third must SIGKILL *)
  Unix.putenv Serving.Crashpoint.env_var "2";
  flush stdout;
  flush stderr;
  (match Unix.fork () with
  | 0 ->
      Serving.Crashpoint.reset ();
      if not (Serving.Crashpoint.armed ()) then Unix._exit 3;
      Serving.Crashpoint.step ();
      Serving.Crashpoint.step ();
      Serving.Crashpoint.step () (* budget exhausted: SIGKILL here *);
      Unix._exit 4
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | Unix.WEXITED 3 -> Alcotest.fail "environment did not arm the child"
      | Unix.WEXITED 4 -> Alcotest.fail "armed child outlived its budget"
      | _ -> Alcotest.fail "child died oddly"));
  (* the parent never consumed the environment: still disarmable *)
  Serving.Crashpoint.reset ();
  Serving.Crashpoint.disarm ();
  check_bool "disarm wins over the environment" false
    (Serving.Crashpoint.armed ())

let test_crash_at_every_save_step () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~durability:`Durable ~root a);
  let upd = Serving.Incremental.of_artifact a in
  let r = Polybasis.Basis.dim s.basis in
  let xs = Stats.Sampling.monte_carlo rng ~k:5 ~r in
  let f =
    Array.init 5 (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
          s.truth)
  in
  Serving.Incremental.add_batch upd ~xs ~f;
  let updated = Serving.Incremental.to_artifact upd in
  (* an ensemble over the model, whose [.bmfe] goes through the same
     atomic writer: the old state, and the state after one scored batch *)
  let ens_old =
    match Ensemble.State.add (Ensemble.State.create "pair") meta with
    | Ok st -> st
    | Error e -> Alcotest.failf "ensemble add: %s" e
  in
  let ens_new = Ensemble.State.record ens_old [| (-1.5, 5) |] in
  let bytes = Ensemble.State.to_binary_string in
  ignore (Ensemble.Store.save ~durability:`Durable ~root ens_old);
  let stored_ensemble n =
    match Ensemble.Store.load ~root "pair" with
    | Ok st -> bytes st
    | Error e -> Alcotest.failf "ensemble unreadable after kill at %d: %s" n e
  in
  let invariant ~n ~report:_ =
    (match Serving.Store.load ~root meta with
    | Error e -> Alcotest.failf "store unreadable after kill at %d: %s" n e
    | Ok b ->
        check_bool
          (Printf.sprintf "kill at %d leaves base or updated rev" n)
          true
          (b.rev = a.rev || b.rev = updated.rev));
    let e = stored_ensemble n in
    check_bool
      (Printf.sprintf "kill at %d leaves the old or new ensemble" n)
      true
      (String.equal e (bytes ens_old) || String.equal e (bytes ens_new));
    check_int
      (Printf.sprintf "kill at %d: recovery swept every temp file" n)
      0
      (List.length (Serving.Store.list_temp_files ~root))
  in
  let steps =
    sweep_crashpoints ~root ~invariant (fun () ->
        ignore (Serving.Store.save ~durability:`Durable ~root updated);
        ignore (Ensemble.Store.save ~durability:`Durable ~root ens_new))
  in
  (* write temp, fsync temp, rename, fsync dir — at least those *)
  check_bool "save has distinct kill points" true (steps >= 4);
  check_bool "the ensemble save has its own kill points" true (steps >= 8);
  check_bool "clean run leaves the new ensemble" true
    (String.equal (bytes ens_new) (stored_ensemble steps));
  match Serving.Store.load ~root meta with
  | Error e -> Alcotest.failf "final load: %s" e
  | Ok b -> check_int "clean run leaves the update" updated.rev b.rev

let test_crash_at_every_update_protocol_step () =
  (* The write-ahead update commit every writer runs
     ([Serving.Update.commit]): journal append (commit point) ->
     incremental apply -> durable artifact save -> journal truncate.
     Killed anywhere, recovery must land on the base or the
     updated artifact. Killed before the append, it must land on the
     base; killed after the append returned, on the update, replayed
     bit-identical to the uncrashed oracle. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~durability:`Durable ~root a);
  let r = Polybasis.Basis.dim s.basis in
  let xs = Stats.Sampling.monte_carlo rng ~k:4 ~r in
  let f =
    Array.init 4 (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
          s.truth)
  in
  let oracle =
    let upd = Serving.Incremental.of_artifact a in
    Serving.Incremental.add_batch upd ~xs ~f;
    Serving.Incremental.to_artifact upd
  in
  let entry = { Serving.Journal.meta; base_rev = a.rev; xs; f } in
  let protocol () =
    let j = Serving.Journal.open_ ~root () in
    ignore (Serving.Update.commit ~durability:`Durable ~root j a entry);
    Serving.Journal.close j
  in
  (* The commit point: the protocol's first steps are the journal's open
     and append. Children running only those calls, in a directory of
     their own, count them. *)
  let opened, appended =
    let dir = root ^ "-steps" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let open_ () = Serving.Journal.open_ ~root:dir () in
    ( count_steps (fun () -> ignore (open_ ())),
      count_steps (fun () -> Serving.Journal.append (open_ ()) entry) )
  in
  check_bool "the append has its own steps" true (appended > opened);
  let invariant ~n ~report:_ =
    match Serving.Store.load ~root meta with
    | Error e -> Alcotest.failf "store unreadable after kill at %d: %s" n e
    | Ok b ->
        check_bool
          (Printf.sprintf "kill at %d: rev is base or updated" n)
          true
          (b.rev = a.rev || b.rev = oracle.rev);
        if b.rev = oracle.rev then
          check_bool
            (Printf.sprintf "kill at %d: replay matches oracle" n)
            true
            (Array.for_all2 Float.equal oracle.coeffs b.coeffs);
        (* killed once the append returned: the update survives *)
        if n >= appended then
          check_int
            (Printf.sprintf "kill at %d, after the append: updated rev" n)
            oracle.rev b.rev;
        (* killed before the append's first step: nothing committed *)
        if n <= opened then
          check_int
            (Printf.sprintf "kill at %d, before the append: base rev" n)
            a.rev b.rev
  in
  let reset () = ignore (Serving.Store.save ~root a) in
  (* sweep with a store reset before each child so every budget starts
     from the same base state *)
  let budget_cap = 256 in
  let rec go n =
    if n > budget_cap then Alcotest.fail "protocol budget not exhausted";
    reset ();
    match in_crashed_child ~n protocol with
    | `Other what -> Alcotest.failf "child died oddly (budget %d): %s" n what
    | outcome ->
        let report = Serving.Recovery.recover ~durability:`Fast ~root () in
        check_bool
          (Printf.sprintf "recovery clean after kill at step %d" n)
          true
          (Serving.Recovery.clean report);
        invariant ~n ~report;
        if outcome = `Killed then go (n + 1) else n
  in
  let steps = go 0 in
  check_bool "protocol has many kill points" true (steps >= 8);
  match Serving.Store.load ~root meta with
  | Error e -> Alcotest.failf "final load: %s" e
  | Ok b ->
      check_int "clean run leaves the update" oracle.rev b.rev;
      check_bool "clean run matches oracle" true
        (Array.for_all2 Float.equal oracle.coeffs b.coeffs)

let test_crash_random_interleavings () =
  (* Property-style: a chain of updates is applied through
     [Serving.Update.commit] and the process is killed after a random number
     of durability steps. Post-recovery the store must hold {e some}
     prefix of the chain — an artifact that verifies and is
     bit-identical to the uncrashed oracle at that revision. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  let r = Polybasis.Basis.dim s.basis in
  let n_updates = 4 in
  let batches =
    List.init n_updates (fun _ ->
        let rows = 1 + Stats.Rng.int rng 4 in
        let xs = Stats.Sampling.monte_carlo rng ~k:rows ~r in
        let f =
          Array.init rows (fun i ->
              Linalg.Vec.dot
                (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
                s.truth)
        in
        (xs, f))
  in
  (* oracle.(v) = the artifact after the first v updates, uncrashed *)
  let oracle = Array.make (n_updates + 1) a in
  List.iteri
    (fun i (xs, f) ->
      let upd = Serving.Incremental.of_artifact oracle.(i) in
      Serving.Incremental.add_batch upd ~xs ~f;
      oracle.(i + 1) <- Serving.Incremental.to_artifact upd)
    batches;
  let chain () =
    let j = Serving.Journal.open_ ~root () in
    ignore
      (List.fold_left
         (fun cur (xs, f) ->
           Serving.Update.commit ~durability:`Durable ~root j cur
             {
               Serving.Journal.meta;
               base_rev = cur.Serving.Artifact.rev;
               xs;
               f;
             })
         a batches);
    Serving.Journal.close j
  in
  let trials = 25 in
  for trial = 1 to trials do
    ignore (Serving.Store.save ~root a);
    ignore (Serving.Recovery.recover ~durability:`Fast ~root ());
    let budget = Stats.Rng.int rng 120 in
    (match in_crashed_child ~n:budget chain with
    | `Other what ->
        Alcotest.failf "trial %d (budget %d) died oddly: %s" trial budget what
    | `Killed | `Clean -> ());
    let report = Serving.Recovery.recover ~durability:`Fast ~root () in
    check_bool
      (Printf.sprintf "trial %d: recovery clean" trial)
      true
      (Serving.Recovery.clean report);
    match Serving.Store.load ~root meta with
    | Error e -> Alcotest.failf "trial %d: store unreadable: %s" trial e
    | Ok b ->
        check_bool
          (Printf.sprintf "trial %d: rev %d is a chain prefix" trial b.rev)
          true
          (b.rev >= 0 && b.rev <= n_updates);
        check_bool
          (Printf.sprintf "trial %d: rev %d matches the oracle" trial b.rev)
          true
          (Array.for_all2 Float.equal oracle.(b.rev).coeffs b.coeffs)
  done

(* ------------------------------------------------------------------ *)
(* A follower killed at every step of its catch-up and first apply     *)

(* Runs [f] in a forked child that exits 0 when [f] returns. *)
let spawn f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      match f () with () -> Unix._exit 0 | exception _ -> Unix._exit 2)
  | pid -> pid

(* A [--shards 1] daemon that drains on SIGTERM. *)
let serve ?follow ~root addr () =
  let t = Server.Daemon.create ?follow ~root addr in
  Server.Daemon.install_signal_handlers t;
  Server.Daemon.run t

(* One short-lived connection per probe: a dead or not-yet-bound daemon
   reads as [None]. *)
let probe addr f =
  match Server.Client.connect ~retries:0 addr with
  | exception _ -> None
  | c ->
      Fun.protect
        ~finally:(fun () -> try Server.Client.close c with _ -> ())
        (fun () -> try f c with _ -> None)

let model_rev addr =
  probe addr (fun c ->
      match Server.Client.list_models c with
      | Ok infos ->
          List.find_map
            (fun (i : Server.Wire.model_info) ->
              if i.meta = meta then Some i.rev else None)
            infos
      | Error _ -> None)

let journal_seq addr =
  probe addr (fun c ->
      match Server.Client.stats c with
      | Ok st -> Some st.Server.Client.journal_seq
      | Error _ -> None)

(* Wait until [cond] holds or the child [pid] exits, whichever is
   first. *)
let await pid what cond =
  let deadline = Unix.gettimeofday () +. 15. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if cond () then `Ready
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "timed out waiting for %s" what
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _, status -> `Exited status
  in
  go ()

let stop_child pid what =
  Unix.kill pid Sys.sigterm;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s did not drain cleanly" what

let test_follower_crash_at_every_step () =
  (* The leader and the follower are forked children. The follower is
     armed with BMF_CRASH_AFTER_N_WRITES = n for n = 0, 1, 2, ...: it
     starts on an empty root, catches up by snapshot, then applies one
     streamed entry, and the budget kills it at the n-th durability
     step of that run. After every kill its root must recover clean,
     and a restarted, unarmed follower must converge to a store
     byte-identical to the leader's. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  let leader_root = Filename.concat root "leader" in
  let follower_root = Filename.concat root "follower" in
  ignore (Serving.Store.save ~root:leader_root (artifact_of s));
  let laddr = Server.Daemon.Unix_socket (Filename.concat root "l.sock") in
  let fsock = Filename.concat root "f.sock" in
  let faddr = Server.Daemon.Unix_socket fsock in
  let leader =
    spawn (fun () ->
        Serving.Crashpoint.disarm ();
        serve ~root:leader_root laddr ())
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill leader Sys.sigkill;
      ignore (Unix.waitpid [] leader))
  @@ fun () ->
  let cl = Server.Client.connect laddr in
  Fun.protect ~finally:(fun () -> Server.Client.close cl) @@ fun () ->
  let follower ~armed =
    if Sys.file_exists fsock then Sys.remove fsock;
    spawn (fun () ->
        (match armed with
        | Some n ->
            Unix.putenv Serving.Crashpoint.env_var (string_of_int n);
            Serving.Crashpoint.reset ()
        | None -> Serving.Crashpoint.disarm ());
        serve ~follow:laddr ~root:follower_root faddr ())
  in
  let leader_rev () = Option.get (model_rev laddr) in
  let stored_bytes root =
    match Serving.Store.find ~root meta with
    | Some file -> In_channel.with_open_bin file In_channel.input_all
    | None -> Alcotest.failf "no stored artifact under %s" root
  in
  let check_converged n =
    check_bool
      (Printf.sprintf
         "budget %d: follower store byte-identical to the leader's" n)
      true
      (String.equal (stored_bytes leader_root) (stored_bytes follower_root))
  in
  let budget_cap = 64 in
  let rec go n =
    if n > budget_cap then
      Alcotest.failf "follower budget not exhausted after %d steps" budget_cap;
    rm_rf follower_root;
    let seq0 = Option.get (journal_seq laddr) in
    let rev0 = leader_rev () in
    let pid = follower ~armed:(Some n) in
    let outcome =
      match
        await pid "snapshot catch-up" (fun () -> model_rev faddr = Some rev0)
      with
      | `Exited st -> `Exited st
      | `Ready -> (
          let xs, f = fresh_batch s ~tag:(100 + n) ~k:3 in
          (match Server.Client.update cl meta ~xs ~f with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "leader update: %s" e.Server.Wire.message);
          match
            await pid "streamed apply" (fun () ->
                match journal_seq faddr with
                | Some q -> q >= seq0 + 1
                | None -> false)
          with
          | `Exited st -> `Exited st
          | `Ready -> `Survived)
    in
    match outcome with
    | `Survived ->
        stop_child pid "the unkilled follower";
        check_converged n;
        n
    | `Exited (Unix.WSIGNALED sg) when sg = Sys.sigkill ->
        let report =
          Serving.Recovery.recover ~durability:`Fast ~root:follower_root ()
        in
        check_bool
          (Printf.sprintf "recovery clean after follower kill at step %d" n)
          true
          (Serving.Recovery.clean report);
        let pid = follower ~armed:None in
        (match
           await pid "restarted follower" (fun () ->
               model_rev faddr = Some (leader_rev ()))
         with
        | `Ready -> stop_child pid "the restarted follower"
        | `Exited _ -> Alcotest.failf "restarted follower died (budget %d)" n);
        check_converged n;
        go (n + 1)
    | `Exited _ -> Alcotest.failf "follower died oddly (budget %d)" n
  in
  let steps = go 0 in
  (* journal open (3), snapshot save (4), then the streamed commit:
     append (2), save (4), truncate (2) *)
  check_bool "catch-up and apply have many kill points" true (steps >= 12)

(* ------------------------------------------------------------------ *)
(* The inline worker spawns no domain                                  *)

let test_inline_worker_forks () =
  (* A [shards = 1] daemon runs on the main domain while a forked child
     drives a predict and an update through it, then stops it with
     SIGTERM. After the drain the process must still be able to fork:
     OCaml refuses once any domain has been spawned. *)
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:8 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let q =
    let qrng = Stats.Rng.create 884 in
    let r = Polybasis.Basis.dim s.basis in
    Linalg.Mat.of_rows (List.init 16 (fun _ -> Stats.Rng.gaussian_vec qrng r))
  in
  let direct = Serving.Predictor.predict (Serving.Predictor.of_artifact a) q in
  let xs, f = fresh_batch s ~tag:1 ~k:4 in
  let sock = Filename.concat root "inline.sock" in
  let addr = Server.Daemon.Unix_socket sock in
  let t = Server.Daemon.create ~root addr in
  let daemon_pid = Unix.getpid () in
  Server.Daemon.install_signal_handlers t;
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default)
  @@ fun () ->
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* the client; its exit code reports the first thing that went
         wrong, and the daemon is stopped whatever happened *)
      let code =
        try
          let c = Server.Client.connect addr in
          let code =
            match Server.Client.predict c meta q with
            | Error _ -> 2
            | Ok means when not (Array.for_all2 Float.equal direct means) -> 3
            | Ok _ -> (
                match Server.Client.update c meta ~xs ~f with
                | Ok (rev, _) when rev = a.Serving.Artifact.rev + 1 -> 0
                | _ -> 4)
          in
          Server.Client.close c;
          code
        with _ -> 1
      in
      Unix.kill daemon_pid Sys.sigterm;
      Unix._exit code
  | client ->
      Server.Daemon.run t;
      (match snd (Unix.waitpid [] client) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "client child exited %d" c
      | _ -> Alcotest.fail "client child died by a signal");
      check_bool "SIGTERM drained the daemon" true (Server.Daemon.stopping t);
      check_bool "socket path released" false (Sys.file_exists sock);
      (match Serving.Store.load ~root meta with
      | Ok b -> check_int "update committed" (a.rev + 1) b.rev
      | Error e -> Alcotest.failf "store reload: %s" e);
      (match Unix.fork () with
      | 0 -> Unix._exit 0
      | pid -> (
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "post-drain child failed"))

(* ------------------------------------------------------------------ *)

let () =
  Parallel.Pool.set_default_jobs 1;
  Alcotest.run "fork"
    [
      ( "crash",
        [
          Alcotest.test_case "env arming" `Quick test_crashpoint_env_arming;
          Alcotest.test_case "kill at every save step" `Quick
            test_crash_at_every_save_step;
          Alcotest.test_case "kill at every protocol step" `Quick
            test_crash_at_every_update_protocol_step;
          Alcotest.test_case "random interleavings" `Quick
            test_crash_random_interleavings;
        ] );
      ( "follower crash",
        [
          Alcotest.test_case "kill at every catch-up and apply step" `Quick
            test_follower_crash_at_every_step;
        ] );
      ( "inline worker",
        [
          Alcotest.test_case "shards 1 serves, drains, then forks" `Quick
            test_inline_worker_forks;
        ] );
    ]
