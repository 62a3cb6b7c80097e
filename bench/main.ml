(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Sec. V), then runs Bechamel micro-benchmarks of the
   fitting kernels behind each of them.

   Scale is selected by the BMF_BENCH_SCALE environment variable or a
   command-line argument: "quick" | "default" | "paper".

   Besides the human-readable report, the run ends by writing a
   machine-readable summary — section wall-clock timings, Bechamel
   per-run estimates and the full metrics registry — as JSON to
   $BMF_BENCH_JSON (default "bench-summary.json"). *)

let scale_of_string s =
  match Experiments.Config.of_scale_name s with
  | Some cfg -> cfg
  | None ->
      Printf.eprintf "unknown scale %S (want %s)\n" s
        (String.concat "|" Experiments.Config.scale_names);
      exit 2

let scale_name = ref "default"

let config () =
  let from_env = Sys.getenv_opt "BMF_BENCH_SCALE" in
  let from_argv = if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None in
  let scale =
    match (from_argv, from_env) with
    | Some s, _ -> s
    | None, Some s -> s
    | None, None -> "default"
  in
  scale_name := scale;
  Printf.printf "bench scale: %s\n%!" scale;
  scale_of_string scale

let progress msg = Printf.eprintf "  .. %s\n%!" msg

let section title =
  Printf.printf "\n%s\n%s\n%s\n%!" (String.make 72 '=') title
    (String.make 72 '=')

(* (section name, wall-clock seconds), accumulated for the summary. *)
let section_timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let out = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  section_timings := (name, seconds) :: !section_timings;
  Printf.printf "%s\n[%s regenerated in %.1f s]\n%!" out name seconds;
  out

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernels behind each experiment.   *)

let bechamel_tests (cfg : Experiments.Config.t) =
  let open Bechamel in
  (* a representative mid-size problem from the RO benchmark *)
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create 99 in
  let k = 100 in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let problem =
    {
      Experiments.Methods.g;
      f;
      early = prep.early;
      cv_folds = cfg.cv_folds;
      omp_max_terms = Experiments.Config.omp_max_terms cfg ~k;
    }
  in
  let simulate_one =
    let x = Stats.Rng.gaussian_vec rng tb.Circuit.Testbench.layout_dim in
    fun () ->
      tb.Circuit.Testbench.simulate ~stage:Circuit.Stage.Layout ~metric
        ~noise:None x
  in
  [
    (* Tables I-III & V: the two fitters being compared *)
    Test.make ~name:"tables:omp-fit-k100"
      (Staged.stage (fun () ->
           ignore (Experiments.Methods.fit Experiments.Methods.Omp problem)));
    Test.make ~name:"tables:bmf-ps-fit-k100"
      (Staged.stage (fun () ->
           ignore (Experiments.Methods.fit Experiments.Methods.Bmf_ps problem)));
    (* Tables IV & VI: one "simulation" sample (the dominant real cost) *)
    Test.make ~name:"cost:simulate-one-sample"
      (Staged.stage (fun () -> ignore (simulate_one ())));
    (* Figs 5 & 8: MAP solve, conventional vs fast *)
    Test.make ~name:"fig5:map-solve-cholesky"
      (Staged.stage (fun () ->
           ignore
             (Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Direct_cholesky ~g
                ~f ~prior ~hyper:1e-3 ())));
    Test.make ~name:"fig5:map-solve-fast"
      (Staged.stage (fun () ->
           ignore
             (Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g ~f
                ~prior ~hyper:1e-3 ())));
    (* Figs 4 & 7: histogram construction *)
    Test.make ~name:"fig4:histogram-3000"
      (Staged.stage
         (let data = Stats.Rng.gaussian_vec rng 3000 in
          fun () -> ignore (Stats.Histogram.build ~bins:24 data)));
  ]

(* ------------------------------------------------------------------ *)
(* Serving subsystem: online updates vs cold refit.                   *)

(* One fitted RO model plus a stream of fresh samples; used both by the
   wall-clock sweep over K and by the Bechamel entries below. *)
let serving_fixture (cfg : Experiments.Config.t) ~k ~k_new =
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create (1000 + k) in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let hyper = 1e-3 in
  let meta =
    {
      Serving.Artifact.circuit = "ro";
      metric = "frequency";
      scale = "bench";
      seed = cfg.seed;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior ~hyper ~g ~f ()
  in
  let xs_new, f_new =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k:k_new ()
  in
  let g_new = Polybasis.Basis.design_matrix prep.late_basis xs_new in
  let m = Polybasis.Basis.size prep.late_basis in
  let g_full =
    Linalg.Mat.init (k + k_new) m (fun i j ->
        if i < k then Linalg.Mat.get g i j
        else Linalg.Mat.get g_new (i - k) j)
  in
  let f_full = Array.append f f_new in
  let incremental () =
    let upd = Serving.Incremental.of_artifact artifact in
    Serving.Incremental.add_batch upd ~xs:xs_new ~f:f_new;
    Serving.Incremental.coeffs upd
  in
  let refit () =
    Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g:g_full
      ~f:f_full ~prior ~hyper ()
  in
  (incremental, refit)

let serving_table (cfg : Experiments.Config.t) =
  let k_new = 10 in
  let best f =
    let reps = 3 in
    let t = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      t := Float.min !t (Unix.gettimeofday () -. t0)
    done;
    !t
  in
  Printf.printf
    "folding K' = %d new samples into a fitted RO frequency model\n\n" k_new;
  Printf.printf "%8s %18s %14s %10s\n" "K" "incremental (ms)" "refit (ms)"
    "speedup";
  List.iter
    (fun k ->
      let incremental, refit = serving_fixture cfg ~k ~k_new in
      let ti = best incremental and tr = best refit in
      Printf.printf "%8d %18.2f %14.2f %9.1fx\n" k (1e3 *. ti) (1e3 *. tr)
        (tr /. Float.max 1e-9 ti))
    [ 50; 100; 200; 400 ]

let serving_bechamel_tests (cfg : Experiments.Config.t) =
  let open Bechamel in
  let incremental, refit = serving_fixture cfg ~k:100 ~k_new:10 in
  [
    Test.make ~name:"serving:incremental-update-k100"
      (Staged.stage (fun () -> ignore (incremental ())));
    Test.make ~name:"serving:full-refit-k110"
      (Staged.stage (fun () -> ignore (refit ())));
  ]

let run_bechamel tests =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true ()
  in
  let test = Test.make_grouped ~name:"bmf" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let estimates = ref [] in
  Printf.printf "%-40s %16s\n" "benchmark" "time/run";
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (name, ols) ->
               match Analyze.OLS.estimates ols with
               | Some [ est ] ->
                   estimates := (name, est) :: !estimates;
                   let value, unit_ =
                     if est >= 1e9 then (est /. 1e9, "s")
                     else if est >= 1e6 then (est /. 1e6, "ms")
                     else if est >= 1e3 then (est /. 1e3, "us")
                     else (est, "ns")
                   in
                   Printf.printf "%-40s %13.2f %s\n" name value unit_
               | _ -> Printf.printf "%-40s %16s\n" name "n/a"))
    merged;
  List.rev !estimates

(* ------------------------------------------------------------------ *)
(* Serving daemon: end-to-end micro-batched prediction throughput over *)
(* a Unix socket (lib/server), recorded into the summary JSON.         *)

let loadgen_summary : Server.Loadgen.summary option ref = ref None

let daemon_loadgen (cfg : Experiments.Config.t) =
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create 1100 in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k:100 ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let meta =
    {
      Serving.Artifact.circuit = "ro";
      metric = "frequency";
      scale = "bench";
      seed = cfg.seed;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior ~hyper:1e-3 ~g
      ~f ()
  in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-bench-daemon.%d" (Unix.getpid ()))
  in
  ignore (Serving.Store.save ~root artifact);
  (* the shared pool must exist before the server domain spawns, so both
     sides agree on one initialized pool *)
  ignore (Parallel.Pool.run (Array.init 4 (fun i () -> i)));
  let sock = Filename.concat root "bench.sock" in
  (* [`Fast]: the bench measures prediction throughput, not fsync —
     durability overhead is measured separately below *)
  let config =
    { Server.Daemon.default_config with Server.Daemon.durability = `Fast }
  in
  let t = Server.Daemon.create ~config ~root (Server.Daemon.Unix_socket sock) in
  let server = Domain.spawn (fun () -> Server.Daemon.run t) in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop t;
      Domain.join server;
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat root f) with Sys_error _ -> ())
        (try Sys.readdir root with Sys_error _ -> [||]);
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () ->
      let summary =
        Server.Loadgen.run ~connections:4 ~duration_s:2. ~batch:64 ~meta
          [ Server.Daemon.address t ]
      in
      loadgen_summary := Some summary;
      Format.printf "%a@." Server.Loadgen.pp summary)

(* ------------------------------------------------------------------ *)
(* Shard scaling: the same closed-loop load against the same store at  *)
(* --shards 1 and --shards 2, with a direct-predictor fingerprint      *)
(* check per shard count (the multi-core plane must stay bit-exact).   *)

let sharding_records : (int * bool * Server.Loadgen.summary) list ref = ref []

let shard_scaling (cfg : Experiments.Config.t) =
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create 1700 in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k:100 ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let meta =
    {
      Serving.Artifact.circuit = "ro";
      metric = "frequency";
      scale = "bench-shard";
      seed = cfg.seed;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior ~hyper:1e-3 ~g
      ~f ()
  in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-bench-shard.%d" (Unix.getpid ()))
  in
  ignore (Serving.Store.save ~root artifact);
  let r = Polybasis.Basis.dim prep.late_basis in
  let q =
    Stats.Sampling.monte_carlo (Stats.Rng.create 1701) ~k:32 ~r
  in
  let direct =
    Serving.Predictor.predict (Serving.Predictor.of_artifact artifact) q
  in
  ignore (Parallel.Pool.run (Array.init 4 (fun i () -> i)));
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat root f) with Sys_error _ -> ())
        (try Sys.readdir root with Sys_error _ -> [||]);
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun shards ->
          let sock =
            Filename.concat root (Printf.sprintf "shard%d.sock" shards)
          in
          let config =
            {
              Server.Daemon.default_config with
              Server.Daemon.durability = `Fast;
              shards;
            }
          in
          let t =
            Server.Daemon.create ~config ~root
              (Server.Daemon.Unix_socket sock)
          in
          let server = Domain.spawn (fun () -> Server.Daemon.run t) in
          Fun.protect
            ~finally:(fun () ->
              Server.Daemon.stop t;
              Domain.join server)
            (fun () ->
              let addr = Server.Daemon.address t in
              let identical =
                let c = Server.Client.connect addr in
                Fun.protect
                  ~finally:(fun () -> Server.Client.close c)
                  (fun () ->
                    match Server.Client.predict c meta q with
                    | Ok means -> Array.for_all2 Float.equal direct means
                    | Error _ -> false)
              in
              let summary =
                Server.Loadgen.run ~connections:4 ~duration_s:2. ~batch:64
                  ~meta [ addr ]
              in
              sharding_records :=
                (shards, identical, summary) :: !sharding_records;
              Format.printf "shards %d: %.0f req/s, bit-identical: %b@."
                shards summary.Server.Loadgen.throughput_rps identical))
        [ 1; 2 ];
      sharding_records := List.rev !sharding_records)

(* ------------------------------------------------------------------ *)
(* Replication: WAL shipping from a leader to an in-process follower — *)
(* entries shipped per second, follower apply latency (from the        *)
(* bmf_repl_apply_seconds histogram, which times the whole apply:      *)
(* calibration, evidence scoring, the write-ahead commit with its      *)
(* journal append and truncate, and publish) and read throughput       *)
(* served off the follower while it tails the leader.                  *)

let replication_record : string option ref = ref None

(* Upper bound of the bucket where the cumulative count crosses q — the
   standard histogram-quantile estimate (an upper bound on the true
   quantile at bucket resolution). *)
let histogram_quantile h q =
  let buckets = Obs.Metrics.histogram_buckets h in
  let total = Array.fold_left (fun a (_, c) -> a + c) 0 buckets in
  if total = 0 then nan
  else begin
    let target =
      int_of_float (Float.round (q *. float_of_int total)) |> Stdlib.max 1
    in
    let rec walk i cum =
      if i >= Array.length buckets then infinity
      else
        let bound, c = buckets.(i) in
        if cum + c >= target then bound else walk (i + 1) (cum + c)
    in
    walk 0 0
  end

let replication_bench (cfg : Experiments.Config.t) =
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create 1300 in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k:100 ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let meta =
    {
      Serving.Artifact.circuit = "ro";
      metric = "frequency";
      scale = "bench-repl";
      seed = cfg.seed;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior ~hyper:1e-3 ~g
      ~f ()
  in
  let tmp = Filename.get_temp_dir_name () in
  let leader_root =
    Filename.concat tmp (Printf.sprintf "bmf-bench-repl-l.%d" (Unix.getpid ()))
  and follower_root =
    Filename.concat tmp (Printf.sprintf "bmf-bench-repl-f.%d" (Unix.getpid ()))
  in
  ignore (Serving.Store.save ~root:leader_root artifact);
  ignore (Parallel.Pool.run (Array.init 4 (fun i () -> i)));
  let laddr = Server.Daemon.Unix_socket (Filename.concat leader_root "l.sock")
  and faddr =
    Server.Daemon.Unix_socket (Filename.concat follower_root "f.sock")
  in
  let config =
    { Server.Daemon.default_config with Server.Daemon.durability = `Fast }
  in
  let leader = Server.Daemon.create ~config ~root:leader_root laddr in
  let ld = Domain.spawn (fun () -> Server.Daemon.run leader) in
  let follower =
    Server.Daemon.create ~config ~follow:laddr ~root:follower_root faddr
  in
  let fd = Domain.spawn (fun () -> Server.Daemon.run follower) in
  let rmrf root =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat root f) with Sys_error _ -> ())
      (try Sys.readdir root with Sys_error _ -> [||]);
    try Unix.rmdir root with Unix.Unix_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Daemon.stop follower;
      Server.Daemon.stop leader;
      Domain.join fd;
      Domain.join ld;
      rmrf follower_root;
      rmrf leader_root)
    (fun () ->
      let cl = Server.Client.connect laddr in
      let cf = Server.Client.connect faddr in
      Fun.protect
        ~finally:(fun () ->
          Server.Client.close cf;
          Server.Client.close cl)
        (fun () ->
          (* snapshot catch-up: wait until the follower serves the model *)
          let deadline = Unix.gettimeofday () +. 15. in
          let rec wait_model () =
            let served =
              match Server.Client.list_models cf with
              | Ok infos ->
                  List.exists
                    (fun (i : Server.Wire.model_info) -> i.meta = meta)
                    infos
              | Error _ -> false
            in
            if served then ()
            else if Unix.gettimeofday () > deadline then
              failwith "replication bench: follower never caught up"
            else begin
              Unix.sleepf 0.02;
              wait_model ()
            end
          in
          wait_model ();
          let entries = 30 in
          let t0 = Unix.gettimeofday () in
          for i = 1 to entries do
            let rng = Stats.Rng.create (4000 + i) in
            let xs, f =
              Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout
                ~metric ~rng ~k:10 ()
            in
            match Server.Client.update cl meta ~xs ~f with
            | Ok _ -> ()
            | Error e ->
                failwith ("replication bench: update: " ^ e.Server.Wire.message)
          done;
          let update_wall = Unix.gettimeofday () -. t0 in
          (* drain: the follower's applied sequence reaches the leader's *)
          let rec wait_seq () =
            match Server.Client.stats cf with
            | Ok st when st.Server.Client.journal_seq >= entries -> ()
            | _ when Unix.gettimeofday () > deadline ->
                failwith "replication bench: follower never drained the stream"
            | _ ->
                Unix.sleepf 0.005;
                wait_seq ()
          in
          wait_seq ();
          let catchup_wall = Unix.gettimeofday () -. t0 in
          let shipped_per_s =
            float_of_int entries /. Float.max 1e-9 catchup_wall
          in
          let apply_h = Obs.Metrics.histogram "bmf_repl_apply_seconds" in
          let p50 = histogram_quantile apply_h 0.50
          and p99 = histogram_quantile apply_h 0.99 in
          let lag =
            match Obs.Metrics.find_gauge "bmf_repl_lag_entries" with
            | Some g when Obs.Metrics.gauge_is_set g ->
                Obs.Metrics.gauge_value g
            | _ -> 0.
          in
          (* reads served off the follower while it tails the leader *)
          let lg =
            Server.Loadgen.run ~connections:2 ~duration_s:1.5 ~batch:64 ~meta
              [ faddr ]
          in
          Printf.printf
            "replication: %d entries shipped in %.3f s (%.0f entries/s, \
             updates took %.3f s)\n\
             follower apply latency (whole apply, journal included): \
             p50 <= %.3f ms, p99 <= %.3f ms; final \
             lag %.0f entries\n"
            entries catchup_wall shipped_per_s update_wall (1e3 *. p50)
            (1e3 *. p99) lag;
          Format.printf "follower reads: %a@." Server.Loadgen.pp lg;
          let jf v =
            if Float.is_finite v then Printf.sprintf "%.6f" v else "null"
          in
          replication_record :=
            Some
              (Printf.sprintf
                 "{\"entries\":%d,\"update_wall_s\":%s,\"catchup_wall_s\":%s,\
                  \"shipped_per_s\":%s,\"apply_p50_s\":%s,\"apply_p99_s\":%s,\
                  \"lag_entries\":%s,\"follower_loadgen\":%s}"
                 entries (jf update_wall) (jf catchup_wall) (jf shipped_per_s)
                 (jf p50) (jf p99) (jf lag)
                 (Server.Loadgen.to_json lg))))

(* ------------------------------------------------------------------ *)
(* Durability overhead: `Fast` vs `Durable` artifact saves and the     *)
(* write-ahead journal append, on the same artifact the daemon bench   *)
(* serves — quantifies what the fsync discipline costs per update.     *)

(* (operation, seconds per op), for the summary JSON. *)
let durability_timings : (string * float) list ref = ref []

let durability_overhead (cfg : Experiments.Config.t) =
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create 1100 in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k:100 ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let meta =
    {
      Serving.Artifact.circuit = "ro";
      metric = "frequency";
      scale = "bench-durability";
      seed = cfg.seed;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior ~hyper:1e-3 ~g
      ~f ()
  in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-bench-durability.%d" (Unix.getpid ()))
  in
  let ops = 20 in
  let record name f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to ops do
      f ()
    done;
    let per_op = (Unix.gettimeofday () -. t0) /. float_of_int ops in
    durability_timings := (name, per_op) :: !durability_timings;
    Printf.printf "  %-16s %8.3f ms/op  (%d ops)\n" name (1e3 *. per_op) ops
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat root f) with Sys_error _ -> ())
        (try Sys.readdir root with Sys_error _ -> [||]);
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () ->
      record "save_fast" (fun () ->
          ignore (Serving.Store.save ~durability:`Fast ~root artifact));
      record "save_durable" (fun () ->
          ignore (Serving.Store.save ~durability:`Durable ~root artifact));
      let entry = { Serving.Journal.meta; base_rev = 0; xs; f } in
      let jf = Serving.Journal.open_ ~durability:`Fast ~root () in
      record "journal_fast" (fun () -> Serving.Journal.append jf entry);
      Serving.Journal.close jf;
      let jd = Serving.Journal.open_ ~durability:`Durable ~root () in
      record "journal_durable" (fun () -> Serving.Journal.append jd entry);
      Serving.Journal.close jd;
      durability_timings := List.rev !durability_timings)

(* ------------------------------------------------------------------ *)
(* Kernel plane: the allocating serving kernels vs their preallocated  *)
(* [_into] twins (bit-identical outputs by construction), plus the     *)
(* minor-heap words per query on the arena path — the number the CI    *)
(* allocation gate bounds.                                             *)

(* (name, value) pairs: *_ns_per_call timings and *_minor_words_per_query. *)
let kernel_records : (string * float) list ref = ref []

let kernel_plane_bench (cfg : Experiments.Config.t) =
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create 2300 in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k:100 ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let meta =
    {
      Serving.Artifact.circuit = "ro";
      metric = "frequency";
      scale = "bench-kernels";
      seed = cfg.seed;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior ~hyper:1e-3 ~g
      ~f ()
  in
  let pred = Serving.Predictor.of_artifact artifact in
  let batch = 64 in
  let r = Polybasis.Basis.dim prep.late_basis in
  let q = Stats.Sampling.monte_carlo (Stats.Rng.create 2301) ~k:batch ~r in
  let scratch = Serving.Predictor.Scratch.create ~capacity:batch pred in
  let means = Array.make batch 0. and stds = Array.make batch 0. in
  let record name v = kernel_records := (name, v) :: !kernel_records in
  let time_per_call name f =
    f ();
    f ();
    let iters = 200 in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      best :=
        Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int iters)
    done;
    record (name ^ "_ns_per_call") (1e9 *. !best);
    Printf.printf "  %-34s %10.2f us/call\n" name (1e6 *. !best)
  in
  (* batch-64 predict: allocating vs arena, means-only and mean+std *)
  time_per_call "predict" (fun () -> ignore (Serving.Predictor.predict pred q));
  time_per_call "predict_into" (fun () ->
      Serving.Predictor.predict_into pred ~scratch q ~means);
  time_per_call "predict_with_std" (fun () ->
      ignore (Serving.Predictor.predict_with_std pred q));
  time_per_call "predict_with_std_into" (fun () ->
      Serving.Predictor.predict_with_std_into pred ~scratch q ~means ~stds);
  (* raw gemv on the stored posterior core *)
  let gm = artifact.Serving.Artifact.g in
  let x = Array.make (Linalg.Mat.cols gm) 1.0 in
  let y = Array.make (Linalg.Mat.rows gm) 0. in
  time_per_call "gemv" (fun () -> ignore (Linalg.Mat.gemv gm x));
  time_per_call "gemv_into" (fun () -> Linalg.Mat.gemv_into gm x y);
  (* design-matrix assembly: allocating wrapper vs arena *)
  let dst = Linalg.Mat.create batch (Polybasis.Basis.size prep.late_basis) in
  let bscratch = Polybasis.Basis.Scratch.create prep.late_basis in
  time_per_call "design_matrix" (fun () ->
      ignore (Polybasis.Basis.design_matrix prep.late_basis q));
  time_per_call "design_matrix_into" (fun () ->
      Polybasis.Basis.design_matrix_into prep.late_basis ~scratch:bscratch q
        ~dst);
  (* steady-state minor-heap traffic on the arena path *)
  let words_per_query f =
    for _ = 1 to 3 do
      f ()
    done;
    let calls = 50 in
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int (calls * batch)
  in
  let wp =
    words_per_query (fun () ->
        Serving.Predictor.predict_into pred ~scratch q ~means)
  in
  let wps =
    words_per_query (fun () ->
        Serving.Predictor.predict_with_std_into pred ~scratch q ~means ~stds)
  in
  record "predict_into_minor_words_per_query" wp;
  record "predict_with_std_into_minor_words_per_query" wps;
  Printf.printf
    "  minor words/query: predict_into %.3f, predict_with_std_into %.3f\n" wp
    wps;
  kernel_records := List.rev !kernel_records

(* ------------------------------------------------------------------ *)
(* Ensemble: BMA over two amp models vs the best single member —       *)
(* held-out RMSE and empirical 2-sigma coverage, where the ensemble    *)
(* interval uses the decomposed variance (within + between).           *)

(* JSON fragment for the summary file. *)
let ensemble_record : string option ref = ref None

let ensemble_accuracy (cfg : Experiments.Config.t) =
  let tb = Circuit.Amplifier.testbench (Circuit.Amplifier.create cfg.seed) in
  let metric = Circuit.Amplifier.offset_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create (cfg.seed + 331) in
  let draw k =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k ()
  in
  let fusion_cfg = { Bmf.Fusion.default_config with cv_folds = cfg.cv_folds } in
  let member ~seed ~k =
    let xs, f = draw k in
    let g = Polybasis.Basis.design_matrix prep.late_basis xs in
    let fitted =
      Bmf.Fusion.fit_design
        ~rng:(Stats.Rng.create (seed + 97))
        ~config:fusion_cfg ~early:prep.early ~g ~f Bmf.Fusion.Bmf_ps
    in
    let meta =
      {
        Serving.Artifact.circuit = "amp";
        metric = tb.metrics.(metric);
        scale = "bench-ensemble";
        seed;
      }
    in
    ( k,
      Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior:fitted.prior
        ~hyper:fitted.hyper ~g ~f () )
  in
  (* founder fitted on a starved budget; the canaried revision sees 12x the
     late-stage samples and must earn its weight through evidence alone
     (it starts from the ln 1e-6 canary prior) *)
  let members = [| member ~seed:cfg.seed ~k:8; member ~seed:(cfg.seed + 1) ~k:96 |] in
  let st =
    Array.fold_left
      (fun st (_, a) ->
        match Ensemble.State.add st a.Serving.Artifact.meta with
        | Ok st -> st
        | Error e -> failwith e)
      (Ensemble.State.create "bench")
      members
  in
  let predictors =
    Array.map (fun (_, a) -> Serving.Predictor.of_artifact a) members
  in
  (* evidence stream: score each fresh batch under every member's current
     predictive density, then fold the increments in — the same
     score-then-commit protocol the daemon's update path runs *)
  let rounds = 16 and batch = 16 in
  let st = ref st in
  for _ = 1 to rounds do
    let xs, f = draw batch in
    let increments =
      Array.map
        (fun p ->
          let means, stds = Serving.Predictor.predict_with_std p xs in
          (Ensemble.Evidence.score ~means ~stds f, batch))
        predictors
    in
    st := Ensemble.State.record !st increments
  done;
  let st = !st in
  let weights = Ensemble.State.weights st in
  (* held-out evaluation *)
  let holdout = 256 in
  let xs_test, f_test = draw holdout in
  let rmse means =
    let acc = ref 0. in
    Array.iteri (fun i m -> acc := !acc +. (((m -. f_test.(i)) ** 2.))) means;
    sqrt (!acc /. float_of_int holdout)
  in
  let coverage means std_of =
    let hits = ref 0 in
    Array.iteri
      (fun i m ->
        if Float.abs (f_test.(i) -. m) <= 2. *. std_of i then incr hits)
      means;
    float_of_int !hits /. float_of_int holdout
  in
  let per_member =
    Array.map
      (fun p ->
        let means, stds = Serving.Predictor.predict_with_std p xs_test in
        (rmse means, coverage means (fun i -> stds.(i))))
      predictors
  in
  let e_means, e_within, e_between =
    Ensemble.Predictor.predict st (Array.map Option.some predictors) xs_test
  in
  let e_rmse = rmse e_means in
  let e_cov =
    coverage e_means (fun i -> sqrt (e_within.(i) +. e_between.(i)))
  in
  let best_rmse = Array.fold_left (fun a (r, _) -> Float.min a r) infinity per_member in
  Printf.printf
    "amp %s: %d evidence batches of %d points, %d held-out points\n\n"
    tb.metrics.(metric) rounds batch holdout;
  Printf.printf "%-22s %6s %14s %12s %8s\n" "member" "K" "holdout RMSE"
    "2s coverage" "weight";
  Array.iteri
    (fun i (k, (a : Serving.Artifact.t)) ->
      let r, c = per_member.(i) in
      Printf.printf "%-22s %6d %14.4f %12.3f %8.4f\n"
        (Printf.sprintf "amp/%s seed=%d" a.meta.metric a.meta.seed)
        k r c weights.(i))
    members;
  Printf.printf "%-22s %6s %14.4f %12.3f %8s\n" "BMA ensemble" "-" e_rmse e_cov
    "-";
  Printf.printf "\nensemble RMSE / best single member RMSE: %.3f\n"
    (e_rmse /. Float.max 1e-12 best_rmse);
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"circuit\":\"amp\",\"metric\":%s,\"holdout\":%d,\"members\":["
       (Obs.Json_string.quote tb.metrics.(metric))
       holdout);
  Array.iteri
    (fun i (k, (a : Serving.Artifact.t)) ->
      let r, c = per_member.(i) in
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seed\":%d,\"k\":%d,\"rmse\":%.6f,\"coverage\":%.4f,\"weight\":%.6f}"
           a.meta.seed k r c weights.(i)))
    members;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"ensemble\":{\"rmse\":%.6f,\"coverage\":%.4f},\"best_member_rmse\":%.6f}"
       e_rmse e_cov best_rmse);
  ensemble_record := Some (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Parallel CV sweep: wall-clock speedup curve over -j, with the       *)
(* determinism bar checked on the spot.                                *)

(* (jobs, best seconds, bit-identical to -j 1), for the summary JSON. *)
let parallel_timings : (int * float * bool) list ref = ref []

let parallel_cv_sweep (cfg : Experiments.Config.t) =
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let tb = Circuit.Ring_oscillator.testbench ro in
  let metric = Circuit.Ring_oscillator.frequency_index in
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let rng = Stats.Rng.create 4242 in
  let k = 240 in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric ~rng
      ~k ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  let prior = Bmf.Prior.nonzero_mean prep.early in
  let candidates =
    Bmf.Hyper.auto_grid ~per_decade:2 ~g ~f ~prior ()
  in
  let sweep jobs =
    Parallel.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.set_default_jobs 0)
      (fun () ->
        Bmf.Hyper.cv_errors
          ~rng:(Stats.Rng.create 7)
          ~folds:8 ~g ~f ~prior ~candidates ())
  in
  let best f =
    let reps = 3 in
    let t = ref infinity and out = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      t := Float.min !t (Unix.gettimeofday () -. t0);
      out := Some r
    done;
    (Option.get !out, !t)
  in
  Printf.printf
    "CV fold sweep: K = %d, %d folds x %d candidates (RO frequency)\n\
     recommended domains on this host: %d\n\n"
    k 8 (List.length candidates)
    (Domain.recommended_domain_count ());
  Printf.printf "%6s %14s %10s %12s\n" "-j" "seconds" "speedup" "identical";
  ignore (sweep 1) (* warm up allocators and code paths *);
  let baseline, t1 = best (fun () -> sweep 1) in
  parallel_timings := [];
  List.iter
    (fun jobs ->
      let scored, t = if jobs = 1 then (baseline, t1) else best (fun () -> sweep jobs) in
      let identical =
        List.for_all2
          (fun (c1, e1) (cj, ej) ->
            Int64.bits_of_float c1 = Int64.bits_of_float cj
            && Int64.bits_of_float e1 = Int64.bits_of_float ej)
          baseline scored
      in
      if not identical then
        failwith
          (Printf.sprintf
             "parallel CV sweep at -j %d diverged from the sequential bits"
             jobs);
      parallel_timings := (jobs, t, identical) :: !parallel_timings;
      Printf.printf "%6d %14.3f %9.2fx %12s\n" jobs t
        (t1 /. Float.max 1e-9 t)
        (if identical then "yes" else "NO"))
    [ 1; 2; 4; 8 ];
  parallel_timings := List.rev !parallel_timings

(* ------------------------------------------------------------------ *)
(* Machine-readable summary: BENCH_SUMMARY line + JSON file.          *)

let summary_json ~total_seconds ~microbench =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"bench\":\"bmf\",\"scale\":%s,\"total_seconds\":%.3f"
       (Obs.Json_string.quote !scale_name) total_seconds);
  Buffer.add_string buf ",\"sections\":[";
  List.iteri
    (fun i (name, seconds) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"seconds\":%.6f}"
           (Obs.Json_string.quote name)
           seconds))
    (List.rev !section_timings);
  Buffer.add_string buf "],\"microbench_ns_per_run\":[";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"ns\":%.3f}"
           (Obs.Json_string.quote name) ns))
    microbench;
  (* the metrics registry as recorded over the whole run (collection is
     enabled for the duration of main); Metrics.to_json is already a
     JSON document, spliced in verbatim *)
  Buffer.add_string buf "],\"parallel_cv\":[";
  let t1 =
    match !parallel_timings with (1, t, _) :: _ -> t | _ -> Float.nan
  in
  List.iteri
    (fun i (jobs, seconds, identical) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"jobs\":%d,\"seconds\":%.6f,\"speedup\":%.3f,\"identical\":%b}"
           jobs seconds
           (t1 /. Float.max 1e-9 seconds)
           identical))
    !parallel_timings;
  Buffer.add_string buf "],\"loadgen\":";
  (match !loadgen_summary with
  | Some s -> Buffer.add_string buf (Server.Loadgen.to_json s)
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"sharding\":[";
  let rps1 =
    match !sharding_records with
    | (1, _, s) :: _ -> s.Server.Loadgen.throughput_rps
    | _ -> Float.nan
  in
  List.iteri
    (fun i (shards, identical, s) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"shards\":%d,\"identical\":%b,\"speedup\":%.3f,\"loadgen\":%s}"
           shards identical
           (s.Server.Loadgen.throughput_rps /. Float.max 1e-9 rps1)
           (Server.Loadgen.to_json s)))
    !sharding_records;
  Buffer.add_string buf "],\"replication\":";
  (match !replication_record with
  | Some s -> Buffer.add_string buf s
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"durability\":[";
  List.iteri
    (fun i (name, seconds) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"op\":%s,\"seconds_per_op\":%.6f}"
           (Obs.Json_string.quote name) seconds))
    !durability_timings;
  Buffer.add_string buf "],\"kernels\":[";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"value\":%.6f}"
           (Obs.Json_string.quote name)
           v))
    !kernel_records;
  Buffer.add_string buf "]";
  Buffer.add_string buf ",\"ensemble\":";
  (match !ensemble_record with
  | Some s -> Buffer.add_string buf s
  | None -> Buffer.add_string buf "null");
  Buffer.add_string buf ",\"metrics\":";
  Buffer.add_string buf (Obs.Metrics.to_json ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let write_summary ~total_seconds ~microbench =
  let path =
    match Sys.getenv_opt "BMF_BENCH_JSON" with
    | Some p -> p
    | None -> "bench-summary.json"
  in
  let json = summary_json ~total_seconds ~microbench in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "BENCH_SUMMARY sections=%d microbench=%d total=%.1fs -> %s\n"
    (List.length !section_timings) (List.length microbench) total_seconds path

(* ------------------------------------------------------------------ *)

let () =
  let cfg = config () in
  let t_start = Unix.gettimeofday () in
  (* metrics on for the whole run so the summary carries solver counters,
     condition gauges and latency histograms for every regeneration *)
  Obs.Metrics.enable ();
  Format.printf "config: %a@." Experiments.Config.pp cfg;

  section "Figures 1-3: prior illustrations and RO schematic";
  print_string (Experiments.Figures.fig1 ());
  print_newline ();
  print_string (Experiments.Figures.fig2 ());
  print_newline ();
  print_string (Experiments.Figures.fig3 cfg);

  section "Figure 4: RO sample histograms";
  ignore (timed "fig4" (fun () -> Experiments.Figures.fig4 cfg));

  section "Table I: RO power";
  ignore (timed "table1" (fun () -> Experiments.Tables.table1 ~progress cfg));

  section "Table II: RO phase noise";
  ignore (timed "table2" (fun () -> Experiments.Tables.table2 ~progress cfg));

  section "Table III: RO frequency";
  ignore (timed "table3" (fun () -> Experiments.Tables.table3 ~progress cfg));

  section "Figure 5: RO fitting cost (OMP vs BMF-PS direct vs fast)";
  ignore (timed "fig5" (fun () -> Experiments.Figures.fig5 cfg));

  section "Table IV: RO error and cost";
  ignore (timed "table4" (fun () -> Experiments.Tables.table4 ~progress cfg));

  section "Figure 6: SRAM read-path schematic";
  print_string (Experiments.Figures.fig6 cfg);

  section "Figure 7: SRAM read-delay histogram";
  ignore (timed "fig7" (fun () -> Experiments.Figures.fig7 cfg));

  section "Table V: SRAM read delay";
  ignore (timed "table5" (fun () -> Experiments.Tables.table5 ~progress cfg));

  section "Figure 8: SRAM fitting cost";
  ignore (timed "fig8" (fun () -> Experiments.Figures.fig8 cfg));

  section "Table VI: SRAM error and cost";
  ignore (timed "table6" (fun () -> Experiments.Tables.table6 ~progress cfg));

  section "Serving: incremental update vs full refit (wall clock)";
  ignore (timed "serving" (fun () -> serving_table cfg; ""));

  section "Serving daemon: micro-batched predictions over a Unix socket";
  ignore (timed "daemon_loadgen" (fun () -> daemon_loadgen cfg; ""));

  section "Shard scaling: loadgen at --shards 1 vs 2 (bit-exact)";
  ignore (timed "sharding" (fun () -> shard_scaling cfg; ""));

  section "Replication: WAL shipping to an in-process follower";
  ignore (timed "replication" (fun () -> replication_bench cfg; ""));

  section "Durability: Fast vs Durable saves and journal appends";
  ignore (timed "durability" (fun () -> durability_overhead cfg; ""));

  section "Kernel plane: allocating kernels vs preallocated _into twins";
  ignore (timed "kernels" (fun () -> kernel_plane_bench cfg; ""));

  section "Ensemble: BMA vs best single member (amp held-out accuracy)";
  ignore (timed "ensemble" (fun () -> ensemble_accuracy cfg; ""));

  section "Parallel CV sweep: speedup over -j (bit-identical by construction)";
  ignore (timed "parallel_cv" (fun () -> parallel_cv_sweep cfg; ""));

  section "Bechamel micro-benchmarks (kernels behind each artifact)";
  let microbench =
    run_bechamel (bechamel_tests cfg @ serving_bechamel_tests cfg)
  in

  Obs.Metrics.disable ();
  print_newline ();
  write_summary ~total_seconds:(Unix.gettimeofday () -. t_start) ~microbench;
  print_endline "bench: all tables and figures regenerated."
