(* Command-line driver: regenerate any table or figure of the paper, run
   the ablation studies, inspect the benchmark circuits, or operate the
   model-serving registry.

     repro table 1..6     a paper table
     repro fig 1..8       a paper figure
     repro all            everything, in paper order
     repro ablation NAME  prior-quality | sampling | missing-prior |
                          early-fit | solver | all
     repro info           circuit and configuration summary
     repro fit            fit a model and persist it as an artifact
     repro predict        serve predictions from a stored artifact
     repro update         fold new samples in without a full refit
     repro models         list and verify the artifact registry
     repro ensemble       create/extend/inspect BMA ensembles over the
                          registry; later members join as near-zero-
                          weight canaries moved by accumulated evidence
     repro recover        crash recovery: verify, replay journal, sweep
     repro serve          micro-batching prediction daemon (lib/server);
                          --follow ADDR replicates from a leader
     repro promote        flip a follower daemon to leader (failover)
     repro client         one-shot wire-protocol client for serve
     repro loadgen        closed-loop load generator against serve
                          (repeatable --endpoint fans reads out;
                          --update-every/--stats-every mix opcodes)
     repro events         dump a daemon's structured event ring
     repro trace-merge    stitch per-process Chrome traces into one
                          timeline (client + leader + follower)
     repro stats          instrumented fit: numerical health + metrics

   `fit`, `predict` and `update` accept --trace FILE (Chrome
   trace-event JSON, opens in chrome://tracing or Perfetto) and
   --metrics FILE (Prometheus text exposition); without the flags the
   observability layer stays off and records nothing. `serve` adds
   --http ADDR (GET /metrics, /health, /ready, /events scrape
   endpoint), --events (structured event ring) and --trace; `client`
   and `loadgen` accept --trace too, and their spans' trace context
   rides the wire into the daemon (protocol v2). *)

open Cmdliner

let scale_conv =
  let parse s =
    match Experiments.Config.of_scale_name s with
    | Some cfg -> Ok (s, cfg)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scale %S (want %s)" s
               (String.concat "|" Experiments.Config.scale_names)))
  in
  Arg.conv (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)

(* An integer flag with an inclusive lower bound: an out-of-range value
   is a usage error naming the flag, not an exception deep in a run. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is below the minimum %d" n lo))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg =
  Arg.(
    value
    & opt scale_conv ("default", Experiments.Config.default)
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Problem scale: $(b,quick), $(b,default) or $(b,paper).")

let repeats_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "repeats" ] ~docv:"N" ~doc:"Override the number of repeated runs.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the master seed.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print progress to stderr.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Parallel lanes (worker domains + the main one) for the CV fold \
           sweep, design-matrix construction and batch prediction. 0 (the \
           default) selects automatically: \\$BMF_JOBS if set, else the \
           recommended domain count capped at 8. Results are bit-identical \
           at any $(docv).")

let build_config (scale_name, scale) repeats seed jobs =
  let cfg = match repeats with
    | Some r -> Experiments.Config.with_repeats scale r
    | None -> scale
  in
  let cfg = match seed with
    | Some s -> Experiments.Config.with_seed cfg s
    | None -> cfg
  in
  Parallel.Pool.set_default_jobs (Stdlib.max 0 jobs);
  (scale_name, cfg)

let progress_of verbose =
  if verbose then fun msg -> Printf.eprintf "  .. %s\n%!" msg
  else fun (_ : string) -> ()

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event JSON trace of this run to $(docv) \
           (open in chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a Prometheus text-format metrics dump of this run to \
           $(docv).")

(* Turn the observability sinks on for the duration of one command and
   write the requested files on the way out — also when the command
   raises, so a failing run still leaves its trace behind. With neither
   flag this is exactly [f ()]: the sinks stay off and the instrumented
   libraries record nothing. *)
let with_obs ~trace ~metrics name f =
  if trace = None && metrics = None then f ()
  else begin
    if trace <> None then Obs.Trace.start ();
    if metrics <> None then Obs.Metrics.enable ();
    let finish () =
      Obs.Trace.stop ();
      Obs.Metrics.disable ();
      Option.iter
        (fun file ->
          Obs.Trace.write_file file;
          let spans, instants =
            List.fold_left
              (fun (s, i) ev ->
                match ev with
                | Obs.Trace.Complete _ -> (s + 1, i)
                | Obs.Trace.Instant _ -> (s, i + 1))
              (0, 0) (Obs.Trace.events ())
          in
          Printf.eprintf "trace: %d spans, %d instants -> %s\n%!" spans
            instants file)
        trace;
      Option.iter
        (fun file ->
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Obs.Metrics.to_prometheus ()));
          Printf.eprintf "metrics: -> %s\n%!" file)
        metrics
    in
    Fun.protect ~finally:finish (fun () ->
        Obs.Trace.with_span ~cat:"cli" name (fun _ -> f ()))
  end

let common_named =
  Term.(const build_config $ scale_arg $ repeats_arg $ seed_arg $ jobs_arg)

let common = Term.(const snd $ common_named)

let table_num =
  Arg.(
    required
    & pos 0 (some int) None
    & info [] ~docv:"N" ~doc:"Table number, 1-6.")

let csv_arg =
  Arg.(
    value & flag
    & info [ "csv" ]
        ~doc:
          "Print machine-readable CSV instead of the formatted table \
           (accuracy tables 1, 2, 3 and 5 only).")

let run_table cfg verbose csv n =
  let progress = progress_of verbose in
  if csv then begin
    let acc =
      match n with
      | 1 ->
          Experiments.Tables.ro_accuracy ~progress cfg
            ~metric:Circuit.Ring_oscillator.power_index
      | 2 ->
          Experiments.Tables.ro_accuracy ~progress cfg
            ~metric:Circuit.Ring_oscillator.phase_noise_index
      | 3 ->
          Experiments.Tables.ro_accuracy ~progress cfg
            ~metric:Circuit.Ring_oscillator.frequency_index
      | 5 -> Experiments.Tables.sram_accuracy ~progress cfg
      | _ ->
          prerr_endline "--csv supports accuracy tables 1, 2, 3 and 5";
          exit 2
    in
    print_string (Experiments.Report.accuracy_csv acc)
  end
  else begin
    let render =
      match n with
      | 1 -> Experiments.Tables.table1 ~progress
      | 2 -> Experiments.Tables.table2 ~progress
      | 3 -> Experiments.Tables.table3 ~progress
      | 4 -> Experiments.Tables.table4 ~progress
      | 5 -> Experiments.Tables.table5 ~progress
      | 6 -> Experiments.Tables.table6 ~progress
      | _ ->
          prerr_endline "table number must be 1-6";
          exit 2
    in
    print_string (render cfg)
  end

let table_cmd =
  let doc = "Regenerate one of the paper's tables (I-VI)." in
  Cmd.v
    (Cmd.info "table" ~doc)
    Term.(const run_table $ common $ verbose_arg $ csv_arg $ table_num)

let fig_num =
  Arg.(
    required
    & pos 0 (some int) None
    & info [] ~docv:"N" ~doc:"Figure number, 1-8.")

let run_fig cfg _verbose n =
  let render =
    match n with
    | 1 -> fun _ -> Experiments.Figures.fig1 ()
    | 2 -> fun _ -> Experiments.Figures.fig2 ()
    | 3 -> Experiments.Figures.fig3
    | 4 -> Experiments.Figures.fig4 ?samples:None
    | 5 -> Experiments.Figures.fig5 ?with_direct:None
    | 6 -> Experiments.Figures.fig6
    | 7 -> Experiments.Figures.fig7 ?samples:None
    | 8 -> Experiments.Figures.fig8
    | _ ->
        prerr_endline "figure number must be 1-8";
        exit 2
  in
  print_string (render cfg)

let fig_cmd =
  let doc = "Regenerate one of the paper's figures (1-8)." in
  Cmd.v (Cmd.info "fig" ~doc) Term.(const run_fig $ common $ verbose_arg $ fig_num)

let run_all cfg verbose =
  let progress = progress_of verbose in
  let banner title =
    Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title
      (String.make 72 '=')
  in
  banner "Figures 1-4";
  print_string (Experiments.Figures.fig1 ());
  print_string (Experiments.Figures.fig2 ());
  print_string (Experiments.Figures.fig3 cfg);
  print_string (Experiments.Figures.fig4 cfg);
  banner "Tables I-IV (ring oscillator)";
  print_string (Experiments.Tables.table1 ~progress cfg);
  print_string (Experiments.Tables.table2 ~progress cfg);
  print_string (Experiments.Tables.table3 ~progress cfg);
  print_string (Experiments.Figures.fig5 cfg);
  print_string (Experiments.Tables.table4 ~progress cfg);
  banner "Figures 6-8 and Tables V-VI (SRAM read path)";
  print_string (Experiments.Figures.fig6 cfg);
  print_string (Experiments.Figures.fig7 cfg);
  print_string (Experiments.Tables.table5 ~progress cfg);
  print_string (Experiments.Figures.fig8 cfg);
  print_string (Experiments.Tables.table6 ~progress cfg)

let all_cmd =
  let doc = "Regenerate every table and figure, in paper order." in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run_all $ common $ verbose_arg)

let ablation_name =
  Arg.(
    value
    & pos 0 string "all"
    & info [] ~docv:"NAME"
        ~doc:
          "prior-quality | sampling | missing-prior | early-fit | \
           nonlinear | baselines | hyper-selection | solver | all")

let run_ablation cfg verbose name =
  let progress = progress_of verbose in
  let render =
    match name with
    | "prior-quality" -> Experiments.Ablation.prior_quality ~progress
    | "sampling" -> Experiments.Ablation.sampling_scheme ~progress
    | "missing-prior" -> Experiments.Ablation.missing_prior ~progress
    | "early-fit" -> Experiments.Ablation.early_fit ~progress
    | "nonlinear" -> Experiments.Ablation.nonlinear_basis ~progress
    | "baselines" -> Experiments.Ablation.baselines ~progress
    | "hyper-selection" -> Experiments.Ablation.hyper_selection ~progress
    | "solver" -> Experiments.Ablation.solver_exactness ~progress
    | "all" -> Experiments.Ablation.all ~progress
    | s ->
        Printf.eprintf "unknown ablation %S\n" s;
        exit 2
  in
  print_string (render cfg)

let ablation_cmd =
  let doc = "Run an ablation study (DESIGN.md Sec. 6)." in
  Cmd.v
    (Cmd.info "ablation" ~doc)
    Term.(const run_ablation $ common $ verbose_arg $ ablation_name)

let run_info (cfg : Experiments.Config.t) _verbose =
  Format.printf "configuration: %a@." Experiments.Config.pp cfg;
  let ro = Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed in
  let ro_tb = Circuit.Ring_oscillator.testbench ro in
  let sram = Circuit.Sram.create ~config:cfg.sram cfg.seed in
  let sram_tb = Circuit.Sram.testbench sram in
  let show (tb : Circuit.Testbench.t) =
    Format.printf "@.%a@." Circuit.Netlist.summary tb.netlist;
    Format.printf
      "  variables: %d schematic -> %d post-layout; metrics: %s@."
      tb.schematic_dim tb.layout_dim
      (String.concat ", " (Array.to_list tb.metrics));
    Format.printf "  simulated cost/sample: %.1f s (schematic), %.1f s \
                   (post-layout)@."
      (tb.sim_cost_seconds Circuit.Stage.Schematic)
      (tb.sim_cost_seconds Circuit.Stage.Layout)
  in
  let amp = Circuit.Amplifier.create cfg.seed in
  show ro_tb;
  show sram_tb;
  show (Circuit.Amplifier.testbench amp)

let info_cmd =
  let doc = "Print the benchmark circuits and configuration." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run_info $ common $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* Model serving: fit / predict / update / models over the artifact
   registry (lib/serving). *)

let circuit_arg =
  Arg.(
    value
    & opt string "ro"
    & info [ "circuit" ] ~docv:"NAME"
        ~doc:"Benchmark circuit: $(b,ro), $(b,sram) or $(b,amp).")

let metric_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metric" ] ~docv:"NAME"
        ~doc:"Performance metric name (default: the circuit's first).")

let dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Model registry directory (default: \\$BMF_MODEL_DIR or \
           $(b,models)).")

let testbench_of (cfg : Experiments.Config.t) name =
  match name with
  | "ro" ->
      Circuit.Ring_oscillator.testbench
        (Circuit.Ring_oscillator.create ~config:cfg.ro cfg.seed)
  | "sram" ->
      Circuit.Sram.testbench (Circuit.Sram.create ~config:cfg.sram cfg.seed)
  | "amp" | "opamp" ->
      Circuit.Amplifier.testbench (Circuit.Amplifier.create cfg.seed)
  | s ->
      Printf.eprintf "unknown circuit %S (want ro|sram|amp)\n" s;
      exit 2

let resolve_metric (tb : Circuit.Testbench.t) = function
  | None -> 0
  | Some name -> (
      try Circuit.Testbench.metric_index tb name
      with Not_found ->
        Printf.eprintf "unknown metric %S for %s (have: %s)\n" name tb.name
          (String.concat ", " (Array.to_list tb.metrics));
        exit 2)

let root_of dir =
  match dir with Some d -> d | None -> Serving.Store.default_root ()

(* Deterministic verification queries, a pure function of the artifact
   key: `fit` prints them right after saving and `predict` recomputes
   them from the loaded artifact, so matching fingerprints prove the
   round-trip is exact. *)
let query_count = 64

let query_points (a : Serving.Artifact.t) =
  let dim = a.basis_dim in
  let rng = Stats.Rng.create (a.meta.seed + 8191) in
  Linalg.Mat.of_rows
    (List.init query_count (fun _ -> Stats.Rng.gaussian_vec rng dim))

let print_predictions ?(show = 5) a =
  let pred = Serving.Predictor.of_artifact a in
  let means, stds = Serving.Predictor.predict_with_std pred (query_points a) in
  Printf.printf "verification queries (seed %d):\n" (a.meta.seed + 8191);
  for i = 0 to Stdlib.min show query_count - 1 do
    Printf.printf "  q%-2d  %+.10g  (+/- %.4g)\n" i means.(i) stds.(i)
  done;
  Printf.printf "prediction fingerprint (%d queries): %s\n" query_count
    (Serving.Artifact.fingerprint means)

let describe (a : Serving.Artifact.t) =
  Printf.sprintf "%s/%s scale=%s seed=%d K=%d M=%d rev=%d %s hyper=%.3g"
    a.meta.circuit a.meta.metric a.meta.scale a.meta.seed
    (Serving.Artifact.num_samples a)
    (Serving.Artifact.num_terms a)
    a.rev
    (Serving.Artifact.method_name a)
    a.hyper

let fit_samples_arg =
  Arg.(
    value
    & opt (int_at_least 2) 100
    & info [ "k"; "samples" ] ~docv:"K"
        ~doc:"Number of late-stage training samples (at least 2).")

(* One master stream per (seed, metric): data sampling and CV fold
   shuffling consume independent splits of it, so the shuffle stream no
   longer depends on how many draws sampling happened to make — the same
   [--seed] pins the artifact bytes regardless of [-k]. *)
let fit_rngs (cfg : Experiments.Config.t) ~metric =
  let master = Stats.Rng.create (cfg.seed + 211 + (metric * 613)) in
  let data = Stats.Rng.split master in
  let shuffle = Stats.Rng.split master in
  (data, shuffle)

let durability_arg ~default =
  Arg.(
    value
    & opt (enum [ ("fast", `Fast); ("durable", `Durable) ]) default
    & info [ "durability" ] ~docv:"MODE"
        ~doc:
          "$(b,durable) fsyncs the artifact (and journal) before \
           acknowledging — survives SIGKILL and power loss; $(b,fast) \
           leaves flushing to the kernel (atomic visibility only).")

let run_fit (scale_name, (cfg : Experiments.Config.t)) verbose circuit
    metric_opt k dir durability trace metrics =
  with_obs ~trace ~metrics "repro_fit" @@ fun () ->
  let progress = progress_of verbose in
  let tb = testbench_of cfg circuit in
  let metric = resolve_metric tb metric_opt in
  progress "fitting early-stage model (prior)";
  let prep = Experiments.Runner.prepare cfg tb ~metric in
  let data_rng, cv_rng = fit_rngs cfg ~metric in
  let xs, f =
    Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric
      ~rng:data_rng ~k ()
  in
  let g = Polybasis.Basis.design_matrix prep.late_basis xs in
  progress (Printf.sprintf "fusing %d late-stage samples (BMF-PS)" k);
  let config = { Bmf.Fusion.default_config with cv_folds = cfg.cv_folds } in
  let fitted =
    Bmf.Fusion.fit_design ~rng:cv_rng ~config ~early:prep.early ~g ~f
      Bmf.Fusion.Bmf_ps
  in
  let meta =
    {
      Serving.Artifact.circuit;
      metric = tb.metrics.(metric);
      scale = scale_name;
      seed = cfg.seed;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior:fitted.prior
      ~hyper:fitted.hyper ~cv_error:fitted.cv_error ~g ~f ()
  in
  let file = Serving.Store.save ~durability ~root:(root_of dir) artifact in
  Printf.printf "saved %s\n  %s\n" file (describe artifact);
  print_predictions artifact

let fit_cmd =
  let doc = "Fit a BMF-PS model and persist it as a serving artifact." in
  Cmd.v (Cmd.info "fit" ~doc)
    Term.(
      const run_fit $ common_named $ verbose_arg $ circuit_arg $ metric_arg
      $ fit_samples_arg $ dir_arg $ durability_arg ~default:`Fast
      $ trace_arg $ metrics_arg)

let run_predict (scale_name, (cfg : Experiments.Config.t)) _verbose circuit
    metric_opt dir trace metrics =
  with_obs ~trace ~metrics "repro_predict" @@ fun () ->
  let tb = testbench_of cfg circuit in
  let metric = resolve_metric tb metric_opt in
  let meta =
    {
      Serving.Artifact.circuit;
      metric = tb.metrics.(metric);
      scale = scale_name;
      seed = cfg.seed;
    }
  in
  match Serving.Store.load ~root:(root_of dir) meta with
  | Error e ->
      Printf.eprintf "%s\n(fit one first: repro fit --circuit %s --scale %s)\n"
        e circuit scale_name;
      exit 1
  | Ok artifact ->
      Printf.printf "loaded %s\n" (describe artifact);
      print_predictions artifact

let predict_cmd =
  let doc =
    "Serve predictions from a stored artifact. Prints the same \
     deterministic verification queries as $(b,repro fit), so matching \
     fingerprints prove the persisted model reproduces the in-process \
     one exactly."
  in
  Cmd.v (Cmd.info "predict" ~doc)
    Term.(
      const run_predict $ common_named $ verbose_arg $ circuit_arg
      $ metric_arg $ dir_arg $ trace_arg $ metrics_arg)

let update_samples_arg =
  Arg.(
    value
    & opt int 25
    & info [ "k"; "samples" ] ~docv:"K'"
        ~doc:"Number of new late-stage samples to fold in.")

let no_check_arg =
  Arg.(
    value & flag
    & info [ "no-check" ]
        ~doc:"Skip the cold-refit cross-check (and its timing).")

let run_update (scale_name, (cfg : Experiments.Config.t)) verbose circuit
    metric_opt k_new dir no_check durability trace metrics =
  with_obs ~trace ~metrics "repro_update" @@ fun () ->
  let progress = progress_of verbose in
  let tb = testbench_of cfg circuit in
  let metric = resolve_metric tb metric_opt in
  let meta =
    {
      Serving.Artifact.circuit;
      metric = tb.metrics.(metric);
      scale = scale_name;
      seed = cfg.seed;
    }
  in
  let root = root_of dir in
  match Serving.Store.load ~root meta with
  | Error e ->
      Printf.eprintf "%s\n(fit one first: repro fit --circuit %s --scale %s)\n"
        e circuit scale_name;
      exit 1
  | Ok artifact ->
      let k0 = Serving.Artifact.num_samples artifact in
      Printf.printf "loaded %s\n" (describe artifact);
      (* fresh samples: the stream advances with the stored revision, so
         successive updates fold in genuinely new data *)
      let master =
        Stats.Rng.create (cfg.seed + 1511 + (metric * 97) + (artifact.rev * 7919))
      in
      let rng = Stats.Rng.split master in
      let xs, f =
        Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric
          ~rng ~k:k_new ()
      in
      progress (Printf.sprintf "folding in %d new samples" k_new);
      let upd = Serving.Incremental.of_artifact artifact in
      let t0 = Unix.gettimeofday () in
      Serving.Incremental.add_batch upd ~xs ~f;
      let coeffs = Serving.Incremental.coeffs upd in
      let incremental_s = Unix.gettimeofday () -. t0 in
      Printf.printf
        "incremental update: K %d -> %d in %.4f s (rank-1 bordering, no M x \
         M solve)\n"
        k0 (k0 + k_new) incremental_s;
      if not no_check then begin
        let m = Serving.Artifact.num_terms artifact in
        let t1 = Unix.gettimeofday () in
        let g_new = Polybasis.Basis.design_matrix (Serving.Artifact.basis artifact) xs in
        let g_full =
          Linalg.Mat.init (k0 + k_new) m (fun i j ->
              if i < k0 then Linalg.Mat.get artifact.g i j
              else Linalg.Mat.get g_new (i - k0) j)
        in
        let f_full = Array.append artifact.f f in
        let cold =
          Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g:g_full
            ~f:f_full ~prior:artifact.prior ~hyper:artifact.hyper ()
        in
        let refit_s = Unix.gettimeofday () -. t1 in
        let max_diff =
          Linalg.Vec.norm_inf (Linalg.Vec.sub coeffs cold)
        in
        Printf.printf
          "cold refit on %d samples: %.4f s  (speedup %.1fx)\n\
           max |incremental - refit| coefficient error: %.3g\n"
          (k0 + k_new) refit_s
          (refit_s /. Float.max 1e-9 incremental_s)
          max_diff;
        if max_diff > 1e-8 then begin
          Printf.eprintf "update check FAILED (tolerance 1e-8)\n";
          exit 1
        end
      end;
      let updated = Serving.Incremental.to_artifact upd in
      let file = Serving.Store.save ~durability ~root updated in
      Printf.printf "saved %s\n  %s\n" file (describe updated);
      print_predictions updated

let update_cmd =
  let doc =
    "Fold newly arrived late-stage samples into a stored model via exact \
     rank-1 Sherman-Morrison/bordering updates of its K x K posterior \
     core — no full refit, verified against one."
  in
  Cmd.v (Cmd.info "update" ~doc)
    Term.(
      const run_update $ common_named $ verbose_arg $ circuit_arg $ metric_arg
      $ update_samples_arg $ dir_arg $ no_check_arg
      $ durability_arg ~default:`Fast $ trace_arg $ metrics_arg)

let human_bytes n =
  if n >= 1_048_576 then Printf.sprintf "%.1f MiB" (float_of_int n /. 1048576.)
  else if n >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
  else Printf.sprintf "%d B" n

let models_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the registry listing as one JSON object (root, per-entry \
           status and metadata) instead of the formatted table.")

let models_to_json root entries =
  let entry_json (e : Serving.Store.entry) =
    let base =
      [
        ("file", Serving.Json.Str (Filename.basename e.file));
        ("bytes", Serving.Json.Num (float_of_int e.bytes));
      ]
    in
    match e.status with
    | Ok a ->
        Serving.Json.Obj
          (base
          @ [
              ("status", Serving.Json.Str "ok");
              ("circuit", Serving.Json.Str a.meta.circuit);
              ("metric", Serving.Json.Str a.meta.metric);
              ("scale", Serving.Json.Str a.meta.scale);
              ("seed", Serving.Json.Num (float_of_int a.meta.seed));
              ("rev", Serving.Json.Num (float_of_int a.rev));
              ( "samples",
                Serving.Json.Num
                  (float_of_int (Serving.Artifact.num_samples a)) );
              ( "terms",
                Serving.Json.Num (float_of_int (Serving.Artifact.num_terms a))
              );
              ("method", Serving.Json.Str (Serving.Artifact.method_name a));
              ("hyper", Serving.Json.Num a.hyper);
              ("verify_ms", Serving.Json.Num (1e3 *. e.verify_seconds));
            ])
    | Error msg ->
        Serving.Json.Obj
          (base
          @ [
              ("status", Serving.Json.Str "corrupt");
              ("error", Serving.Json.Str msg);
            ])
  in
  Serving.Json.to_string
    (Serving.Json.Obj
       [
         ("root", Serving.Json.Str root);
         ("artifacts", Serving.Json.Arr (List.map entry_json entries));
       ])

let run_models dir json =
  let root = root_of dir in
  (* collection on: the listing's store reads feed the bmf_store_*
     counters that produce the summary line *)
  Obs.Metrics.enable ();
  let entries = Serving.Store.list ~root in
  Obs.Metrics.disable ();
  if json then print_endline (models_to_json root entries)
  else
  match entries with
  | [] -> Printf.printf "no artifacts under %s\n" root
  | entries ->
      Printf.printf "artifacts under %s:\n" root;
      List.iter
        (fun (e : Serving.Store.entry) ->
          match e.status with
          | Ok a ->
              Printf.printf "  %-48s %9s  verified %6.2f ms  %s\n"
                (Filename.basename e.file) (human_bytes e.bytes)
                (1e3 *. e.verify_seconds) (describe a)
          | Error msg ->
              Printf.printf "  %-48s %9s  CORRUPT  %s\n"
                (Filename.basename e.file) (human_bytes e.bytes) msg)
        entries;
      let counter_total name =
        match Obs.Metrics.find_counter name with
        | Some c -> Obs.Metrics.counter_value c
        | None -> 0.
      in
      Printf.printf "%d artifact(s), %s read, %.0f load(s), %.0f corrupt\n"
        (List.length entries)
        (human_bytes (int_of_float (counter_total "bmf_store_bytes_read_total")))
        (counter_total "bmf_store_loads_total")
        (counter_total "bmf_store_corrupt_total")

let models_cmd =
  let doc =
    "List the artifact registry: per-entry on-disk size, checksum \
     verification status and verification time, plus store I/O totals. \
     $(b,--json) emits the same listing machine-readably."
  in
  Cmd.v (Cmd.info "models" ~doc)
    Term.(const run_models $ dir_arg $ models_json_arg)

let run_recover dir durability =
  let root = root_of dir in
  let report = Serving.Recovery.recover ~durability ~root () in
  print_endline (Serving.Recovery.summary report);
  if not (Serving.Recovery.clean report) then exit 1

let recover_cmd =
  let doc =
    "Recover the artifact registry after a crash: sweep interrupted-save \
     temp files, checksum-verify every artifact, replay the write-ahead \
     journal tail for updates whose artifact save did not complete, and \
     reset the journal. Exits 1 when any artifact is corrupt or a replay \
     fails — the same pass $(b,repro serve) runs on startup."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const run_recover $ dir_arg $ durability_arg ~default:`Durable)

(* ------------------------------------------------------------------ *)
(* Serving daemon: `repro serve` / `repro client` / `repro loadgen`
   (lib/server — Wire protocol over TCP or a Unix-domain socket). *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on (or connect to) a Unix-domain socket at $(docv) instead \
           of TCP.")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"TCP address to bind/connect.")

let port_arg =
  Arg.(
    value
    & opt int 4617
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port (0 binds an ephemeral port and prints it).")

let address_of socket host port =
  match socket with
  | Some path -> Server.Daemon.Unix_socket path
  | None -> Server.Daemon.Tcp (host, port)

let queue_arg =
  Arg.(
    value
    & opt (int_at_least 0)
        Server.Daemon.default_config.Server.Daemon.queue_capacity
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bounded request-queue capacity per serving worker; a full queue \
           answers an immediate $(b,busy) error frame (explicit \
           backpressure, never unbounded buffering).")

let max_batch_arg =
  Arg.(
    value
    & opt (int_at_least 1) Server.Daemon.default_config.Server.Daemon.max_batch
    & info [ "max-batch" ] ~docv:"N"
        ~doc:
          "Maximum query points fused into one blocked predictor call per \
           micro-batch window.")

let parse_addr_or_die what s =
  match Server.Daemon.parse_address s with
  | Some a -> a
  | None ->
      Printf.eprintf
        "bad %s address %S (want tcp://host:port or unix://path)\n" what s;
      exit 2

let follow_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "follow" ] ~docv:"ADDR"
        ~doc:
          "Start as a read-only $(b,follower) replicating from the leader \
           at $(docv) (tcp://host:port or unix://path): catch up via \
           snapshot, then apply the leader's streamed update journal with \
           the same durability contract as local updates. Serves predict \
           traffic; refuses update with $(b,not_leader) until $(b,repro \
           promote).")

let http_addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "http" ] ~docv:"ADDR"
        ~doc:
          "Serve a scrape endpoint at $(docv) (tcp://host:port or \
           unix://path) from the same event loop: $(b,GET /metrics) \
           (Prometheus text exposition), $(b,/health)/$(b,/healthz) \
           (role, recovery, replication lag, queue depth as JSON), \
           $(b,/ready) (503 until a follower finished catch-up) and \
           $(b,/events).")

let shards_arg =
  Arg.(
    value
    & opt (int_at_least 1) 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Serving workers. Every worker serves its client connections \
           from immutable model snapshots while the \
           accept/journal/replication/scrape plane stays on the main \
           domain. $(docv) = 1 (the default) runs the one worker on the \
           main domain, spawning no domains. $(docv) >= 2 spawns \
           $(docv) worker domains; updates remain serialized through the \
           single write-ahead journal and responses stay bit-identical to \
           $(b,--shards 1).")

let serve_events_arg =
  Arg.(
    value & flag
    & info [ "events" ]
        ~doc:
          "Record the bounded structured event ring (promotion, recovery, \
           subscriber churn, slow requests). Dump it with $(b,repro \
           events), the $(b,events) wire opcode, or $(b,GET /events).")

let serve_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record server-side spans (decode, queue wait, fused kernel, \
           reply, replication apply) and write a Chrome trace-event JSON \
           file to $(docv) on drain. Spans join the distributed trace ids \
           that traced clients stamp on their frames; merge per-process \
           files with $(b,repro trace-merge).")

let run_serve verbose dir socket host port queue max_batch jobs
    durability metrics follow http shards events trace =
  Parallel.Pool.set_default_jobs (Stdlib.max 0 jobs);
  let _ = verbose in
  (* metrics collection is always on for the daemon: the `stats` opcode
     reports the live registry; --metrics additionally dumps it on exit *)
  Obs.Metrics.enable ();
  if events then Obs.Events.enable ();
  if trace <> None then Obs.Trace.start ();
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.queue_capacity = queue;
      max_batch;
      durability;
      http = Option.map (parse_addr_or_die "--http") http;
      shards;
    }
  in
  let follow = Option.map (parse_addr_or_die "--follow") follow in
  let t =
    Server.Daemon.create ~config ?follow ~root:(root_of dir)
      (address_of socket host port)
  in
  Server.Daemon.install_signal_handlers t;
  print_endline (Serving.Recovery.summary (Server.Daemon.recovery t));
  Format.printf
    "serving %s at %a  (queue %d, max batch %d, -j %d, %s, shards %d)@."
    (root_of dir) Server.Daemon.pp_address (Server.Daemon.address t)
    queue max_batch
    (Parallel.Pool.default_jobs ())
    (match durability with `Fast -> "fast" | `Durable -> "durable")
    shards;
  Option.iter
    (fun a ->
      Format.printf "scrape endpoint at %a (/metrics /health /ready /events)@."
        Server.Daemon.pp_address a)
    (Server.Daemon.http_address t);
  (match Server.Daemon.role t with
  | `Leader -> ()
  | `Follower leader ->
      Format.printf
        "follower of %a (read-only; flip with: repro promote)@."
        Server.Daemon.pp_address leader);
  Format.printf "ready; SIGTERM/SIGINT drains and exits@.";
  Server.Daemon.run t;
  Obs.Metrics.disable ();
  Option.iter
    (fun file ->
      Obs.Trace.stop ();
      Obs.Trace.write_file file;
      Printf.eprintf "trace: -> %s\n%!" file)
    trace;
  Option.iter
    (fun file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Obs.Metrics.to_prometheus ()));
      Printf.eprintf "metrics: -> %s\n%!" file)
    metrics;
  Format.printf "drained cleanly@."

let serve_cmd =
  let doc =
    "Run the micro-batching prediction daemon over the artifact registry. \
     Length-prefixed binary wire protocol (opcodes: ping, predict, \
     predict_with_variance, update, list_models, stats, subscribe, \
     promote, predict_ensemble, ensemble_stats), bounded request queue \
     with immediate $(b,busy) backpressure, per-request deadlines, \
     graceful drain on SIGTERM/SIGINT. $(b,--shards N) spreads serving \
     over N worker domains (one core each) with bit-identical responses. With \
     $(b,--follow) the daemon runs as a read-only replication follower. \
     $(b,--http) adds a scrape endpoint (Prometheus /metrics, /health, \
     /ready, /events), $(b,--trace) records distributed-trace spans, \
     $(b,--events) the structured event ring."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ verbose_arg $ dir_arg $ socket_arg $ host_arg
      $ port_arg $ queue_arg $ max_batch_arg $ jobs_arg
      $ durability_arg ~default:`Durable $ metrics_arg $ follow_arg
      $ http_addr_arg $ shards_arg $ serve_events_arg $ serve_trace_arg)

let meta_of (scale_name, (cfg : Experiments.Config.t)) circuit metric_opt =
  let tb = testbench_of cfg circuit in
  let metric = resolve_metric tb metric_opt in
  ( tb,
    metric,
    {
      Serving.Artifact.circuit;
      metric = tb.metrics.(metric);
      scale = scale_name;
      seed = cfg.seed;
    } )

(* ------------------------------------------------------------------ *)
(* `repro ensemble`: manage BMA ensembles over the registry
   (lib/ensemble — .bmfe state files sharing the model root). *)

let ensemble_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"NAME" ~doc:"Ensemble name.")

let occam_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "occam" ] ~docv:"R"
        ~doc:
          "Occam's-window ratio in [0, 1): members whose posterior weight \
           falls below $(docv) times the best member's are pruned to \
           weight 0 before renormalising. 0 (the default) disables the \
           window.")

let need_ensemble_name = function
  | Some n -> n
  | None ->
      prerr_endline "missing --name NAME";
      exit 2

let ensemble_resolve root (m : Serving.Artifact.meta) =
  match Serving.Store.load ~root m with
  | Ok a -> Some (a.Serving.Artifact.rev, a.Serving.Artifact.basis_dim)
  | Error _ -> None

let print_ensemble_predictions name ~seed ~members ~means ~within ~between =
  Printf.printf "ensemble %S: %d member(s), verification queries (seed %d):\n"
    name members (seed + 8191);
  Array.iteri
    (fun i v ->
      if i < 5 then
        Printf.printf "  q%-2d  %+.10g  (within %.4g, between %.4g)\n" i v
          within.(i) between.(i))
    means;
  Printf.printf "mean fingerprint (%d queries): %s\n" query_count
    (Serving.Artifact.fingerprint means);
  Printf.printf "within-variance fingerprint:  %s\n"
    (Serving.Artifact.fingerprint within);
  Printf.printf "between-variance fingerprint: %s\n"
    (Serving.Artifact.fingerprint between)

let run_ensemble common circuit metric_opt dir durability name_opt occam
    action =
  let root = root_of dir in
  match action with
  | "create" -> (
      let name = need_ensemble_name name_opt in
      match Ensemble.Store.find ~root name with
      | Some file ->
          Printf.eprintf "ensemble %S already exists (%s)\n" name file;
          exit 1
      | None -> (
          match Ensemble.State.create ~occam name with
          | state ->
              let file = Ensemble.Store.save ~durability ~root state in
              Printf.printf "created ensemble %S (occam %g) -> %s\n" name
                occam file
          | exception Invalid_argument msg ->
              Printf.eprintf "%s\n" msg;
              exit 2))
  | "add" -> (
      let name = need_ensemble_name name_opt in
      match Ensemble.Store.load ~root name with
      | Error e ->
          Printf.eprintf "%s\n(create it first: repro ensemble create --name %s)\n"
            e name;
          exit 1
      | Ok state -> (
          let _tb, _metric, meta = meta_of common circuit metric_opt in
          match Serving.Store.find ~root meta with
          | None ->
              Printf.eprintf
                "no artifact for %s/%s scale=%s seed=%d under %s\n\
                 (fit one first: repro fit --circuit %s --scale %s --seed %d)\n"
                meta.circuit meta.metric meta.scale meta.seed root
                meta.circuit meta.scale meta.seed;
              exit 1
          | Some _ -> (
              match Ensemble.State.add state meta with
              | Error e ->
                  Printf.eprintf "%s\n" e;
                  exit 1
              | Ok state ->
                  let file = Ensemble.Store.save ~durability ~root state in
                  let n = Array.length state.Ensemble.State.members in
                  Printf.printf
                    "added %s/%s scale=%s seed=%d to %S (%d member(s), \
                     evidence reset) -> %s\n"
                    meta.circuit meta.metric meta.scale meta.seed name n file;
                  if n > 1 then
                    Printf.printf
                      "canary: joins at log prior %.4g (weight ~%.2g); \
                       served updates accumulate the evidence that moves \
                       it\n"
                      Ensemble.State.canary_log_prior
                      (exp Ensemble.State.canary_log_prior))))
  | "list" -> (
      match Ensemble.Store.list ~root with
      | [] -> Printf.printf "no ensembles under %s\n" root
      | l ->
          Printf.printf "ensembles under %s:\n" root;
          List.iter
            (fun (file, status) ->
              match status with
              | Ok (s : Ensemble.State.t) ->
                  let w = Ensemble.State.weights s in
                  Printf.printf "  %-28s %S: %d member(s), occam %g\n"
                    (Filename.basename file) s.name (Array.length s.members)
                    s.occam;
                  Array.iteri
                    (fun i (m : Ensemble.State.member) ->
                      Printf.printf
                        "    w=%-8.6f ev=%+-12.6g over %6d pt(s)  \
                         %s/%s scale=%s seed=%d\n"
                        w.(i) m.log_ev m.count m.meta.circuit m.meta.metric
                        m.meta.scale m.meta.seed)
                    s.members
              | Error msg ->
                  Printf.printf "  %-28s CORRUPT  %s\n"
                    (Filename.basename file) msg)
            l)
  | "show" -> (
      let name = need_ensemble_name name_opt in
      match Ensemble.Store.load ~root name with
      | Error e ->
          prerr_endline e;
          exit 1
      | Ok s ->
          print_endline
            (Serving.Json.to_string
               (Ensemble.State.to_json ~resolve:(ensemble_resolve root) s)))
  | "predict" -> (
      let name = need_ensemble_name name_opt in
      match Ensemble.Store.load ~root name with
      | Error e ->
          prerr_endline e;
          exit 1
      | Ok s ->
          if Array.length s.Ensemble.State.members = 0 then begin
            Printf.eprintf "ensemble %S has no members\n" name;
            exit 1
          end;
          let artifacts =
            Array.map
              (fun (m : Ensemble.State.member) ->
                match Serving.Store.load ~root m.meta with
                | Ok a -> a
                | Error e ->
                    prerr_endline e;
                    exit 1)
              s.members
          in
          let first = artifacts.(0) in
          Array.iter
            (fun (a : Serving.Artifact.t) ->
              if a.basis_dim <> first.Serving.Artifact.basis_dim then begin
                Printf.eprintf
                  "member %s/%s has basis dim %d, ensemble head has %d\n"
                  a.meta.circuit a.meta.metric a.basis_dim
                  first.Serving.Artifact.basis_dim;
                exit 1
              end)
            artifacts;
          (* the same deterministic query block the daemon's
             predict_ensemble answers for: first member's key seeds it *)
          let points = query_points first in
          let predictors =
            Array.map
              (fun a -> Some (Serving.Predictor.of_artifact a))
              artifacts
          in
          let means, within, between =
            Ensemble.Predictor.predict s predictors points
          in
          print_ensemble_predictions name
            ~seed:first.Serving.Artifact.meta.seed
            ~members:(Array.length s.members) ~means ~within ~between)
  | s ->
      Printf.eprintf
        "unknown action %S (want create|add|list|show|predict)\n" s;
      exit 2

let ensemble_action_arg =
  Arg.(
    value
    & pos 0 string "list"
    & info [] ~docv:"ACTION" ~doc:"create | add | list | show | predict")

let ensemble_cmd =
  let doc =
    "Manage Bayesian-model-averaging ensembles over the artifact \
     registry. $(b,create) a named ensemble, $(b,add) a member artifact \
     — the founding member starts at full weight, later ones join as \
     near-zero-weight canaries and every add resets the accumulated \
     evidence so weights stay likelihood ratios over shared data. \
     $(b,list)/$(b,show) print the weight and evidence state (show as \
     JSON), and $(b,predict) computes the offline BMA reference — \
     weighted mean plus decomposed within/between variance — whose \
     fingerprints the daemon's $(b,predict_ensemble) opcode must \
     reproduce bit-for-bit."
  in
  Cmd.v (Cmd.info "ensemble" ~doc)
    Term.(
      const run_ensemble $ common_named $ circuit_arg $ metric_arg $ dir_arg
      $ durability_arg ~default:`Fast $ ensemble_name_arg $ occam_arg
      $ ensemble_action_arg)

let client_action_arg =
  Arg.(
    value
    & pos 0 string "ping"
    & info [] ~docv:"ACTION"
        ~doc:
          "ping | models | stats | events | predict | predict-std | update \
           | predict-ensemble | ensemble-stats")

let die_error what (e : Server.Wire.error) =
  Printf.eprintf "%s: %s: %s\n" what
    (Server.Wire.error_code_name e.Server.Wire.code)
    e.Server.Wire.message;
  exit 1

let client_queries (info : Server.Wire.model_info) =
  let rng = Stats.Rng.create (info.Server.Wire.meta.Serving.Artifact.seed + 8191) in
  Linalg.Mat.of_rows
    (List.init query_count (fun _ ->
         Stats.Rng.gaussian_vec rng info.Server.Wire.dim))

let find_model c (meta : Serving.Artifact.meta) =
  match Server.Client.list_models c with
  | Error e -> die_error "list_models" e
  | Ok infos -> (
      match
        List.find_opt
          (fun (i : Server.Wire.model_info) -> i.Server.Wire.meta = meta)
          infos
      with
      | Some i -> i
      | None ->
          Printf.eprintf
            "daemon serves no model %s/%s scale=%s seed=%d (try: repro \
             client models)\n"
            meta.circuit meta.metric meta.scale meta.seed;
          exit 1)

let die_transport msg =
  Printf.eprintf "%s\n(is the daemon running? start one: repro serve)\n" msg;
  exit 1

let rec run_client common _verbose socket host port deadline_ms trace ename
    action =
  (* --trace wraps the call in a cli span and stamps its (trace, span)
     context on the wire frame — the daemon's spans join this trace *)
  with_obs ~trace ~metrics:None "repro_client" @@ fun () ->
  try run_client_exn common socket host port deadline_ms ename action
  with Server.Client.Transport msg -> die_transport msg

and run_client_exn common socket host port deadline_ms ename action =
  let addr = address_of socket host port in
  let c = Server.Client.connect ~retries:0 addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  match action with
  | "ping" -> (
      let t0 = Unix.gettimeofday () in
      match Server.Client.ping c with
      | Ok () ->
          Printf.printf "pong (%.2f ms)\n"
            (1e3 *. (Unix.gettimeofday () -. t0))
      | Error e -> die_error "ping" e)
  | "models" -> (
      match Server.Client.list_models c with
      | Error e -> die_error "list_models" e
      | Ok [] -> print_endline "no models served"
      | Ok infos ->
          List.iter
            (fun (i : Server.Wire.model_info) ->
              Printf.printf
                "%-32s %s/%s scale=%s seed=%d rev=%d K=%d M=%d dim=%d (%s)\n"
                i.Server.Wire.file i.Server.Wire.meta.Serving.Artifact.circuit
                i.Server.Wire.meta.Serving.Artifact.metric
                i.Server.Wire.meta.Serving.Artifact.scale
                i.Server.Wire.meta.Serving.Artifact.seed i.Server.Wire.rev
                i.Server.Wire.samples i.Server.Wire.terms i.Server.Wire.dim
                (human_bytes i.Server.Wire.bytes))
            infos)
  | "events" -> (
      match Server.Client.events c with
      | Error e -> die_error "events" e
      | Ok json -> print_endline json)
  | "stats" -> (
      match Server.Client.stats c with
      | Error e -> die_error "stats" e
      | Ok s ->
          Printf.printf
            "uptime: %.1f s, requests served: %.0f, updates replayed by \
             recovery: %.0f\nrole: %s, journal offset: %d, shards: %d\n%s\n"
            s.Server.Client.uptime_s s.Server.Client.requests
            s.Server.Client.recovered_updates s.Server.Client.role
            s.Server.Client.journal_seq s.Server.Client.shards
            s.Server.Client.metrics_json)
  | "predict" | "predict-std" -> (
      let _, _, meta = common in
      let info = find_model c meta in
      let queries = client_queries info in
      let means, stds =
        if action = "predict" then
          match Server.Client.predict c ?deadline_ms meta queries with
          | Error e -> die_error "predict" e
          | Ok means -> (means, None)
        else
          match Server.Client.predict_with_std c ?deadline_ms meta queries with
          | Error e -> die_error "predict_with_variance" e
          | Ok (means, stds) -> (means, Some stds)
      in
      Printf.printf "verification queries (seed %d):\n"
        (meta.Serving.Artifact.seed + 8191);
      Array.iteri
        (fun i v ->
          if i < 5 then
            match stds with
            | None -> Printf.printf "  q%-2d  %+.10g\n" i v
            | Some s -> Printf.printf "  q%-2d  %+.10g  (+/- %.4g)\n" i v s.(i))
        means;
      Printf.printf "prediction fingerprint (%d queries): %s\n" query_count
        (Serving.Artifact.fingerprint means))
  | "update" -> (
      let tb, metric, meta = common in
      let info = find_model c meta in
      (* same revision-keyed sample stream as `repro update`, so daemon-
         side updates fold in the same fresh data a local update would *)
      let master =
        Stats.Rng.create
          (meta.Serving.Artifact.seed + 1511 + (metric * 97)
          + (info.Server.Wire.rev * 7919))
      in
      let rng = Stats.Rng.split master in
      let xs, f =
        Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric
          ~rng ~k:25 ()
      in
      match Server.Client.update c ?deadline_ms meta ~xs ~f with
      | Error e -> die_error "update" e
      | Ok (rev, samples) ->
          Printf.printf "updated: rev %d -> %d, K -> %d\n"
            info.Server.Wire.rev rev samples)
  | "ensemble-stats" -> (
      match
        Server.Client.ensemble_stats c
          ~name:(Option.value ename ~default:"")
          ()
      with
      | Error e -> die_error "ensemble_stats" e
      | Ok json -> print_endline json)
  | "predict-ensemble" -> (
      let name = need_ensemble_name ename in
      (* the daemon's stats payload names the first member's (seed, dim),
         enough to regenerate the same deterministic query block the
         offline `repro ensemble predict` reference uses — matching
         fingerprints prove the served BMA path is bit-exact *)
      match Server.Client.ensemble_stats c ~name () with
      | Error e -> die_error "ensemble_stats" e
      | Ok json ->
          let doc =
            match Serving.Json.of_string json with
            | Ok d -> d
            | Error msg ->
                Printf.eprintf "bad ensemble_stats payload: %s\n" msg;
                exit 1
          in
          let first =
            match Serving.Json.member "members" doc with
            | Some (Serving.Json.Arr (m :: _)) -> m
            | _ ->
                Printf.eprintf "ensemble %S has no members\n" name;
                exit 1
          in
          let num key =
            match Serving.Json.member key first with
            | Some (Serving.Json.Num v) -> int_of_float v
            | _ ->
                Printf.eprintf
                  "ensemble %S: first member lacks %S (is its artifact \
                   loadable daemon-side?)\n"
                  name key;
                exit 1
          in
          let seed = num "seed" and dim = num "dim" in
          let rng = Stats.Rng.create (seed + 8191) in
          let queries =
            Linalg.Mat.of_rows
              (List.init query_count (fun _ ->
                   Stats.Rng.gaussian_vec rng dim))
          in
          let members =
            match Serving.Json.member "members" doc with
            | Some (Serving.Json.Arr l) -> List.length l
            | _ -> 0
          in
          (match
             Server.Client.predict_ensemble c ?deadline_ms ~name queries
           with
          | Error e -> die_error "predict_ensemble" e
          | Ok (means, within, between) ->
              print_ensemble_predictions name ~seed ~members ~means ~within
                ~between))
  | s ->
      Printf.eprintf
        "unknown action %S (want ping|models|stats|events|predict|\
         predict-std|update|predict-ensemble|ensemble-stats)\n"
        s;
      exit 2

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline; requests still queued when it expires get \
           a $(b,deadline_exceeded) error frame.")

let client_common =
  Term.(
    const (fun common circuit metric -> meta_of common circuit metric)
    $ common_named $ circuit_arg $ metric_arg)

let client_cmd =
  let doc =
    "One-shot wire-protocol client for $(b,repro serve). $(b,predict) \
     sends the same deterministic verification queries as $(b,repro \
     fit)/$(b,repro predict) — matching fingerprints prove the daemon \
     serves the exact artifact bits. $(b,predict-ensemble) does the same \
     against the BMA path: its fingerprints must match $(b,repro \
     ensemble predict --name) offline; $(b,ensemble-stats) dumps (and \
     refreshes from disk) the daemon's weight/evidence state."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run_client $ client_common $ verbose_arg $ socket_arg $ host_arg
      $ port_arg $ deadline_arg $ trace_arg $ ensemble_name_arg
      $ client_action_arg)

let run_promote socket host port =
  let addr = address_of socket host port in
  try
    let c = Server.Client.connect ~retries:0 addr in
    Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
    match Server.Client.promote c with
    | Error e -> die_error "promote" e
    | Ok (was_follower, seq) ->
        if was_follower then
          Printf.printf
            "promoted to leader at journal sequence %d; updates are \
             accepted here now\n"
            seq
        else Printf.printf "already the leader (journal sequence %d)\n" seq
  with Server.Client.Transport msg -> die_transport msg

let promote_cmd =
  let doc =
    "Promote the daemon at the given address to replication leader. On a \
     follower this finishes applying the buffered leader stream, drops \
     the leader link and starts accepting $(b,update) requests — the \
     failover move after the old leader died. On a leader it is a no-op."
  in
  Cmd.v (Cmd.info "promote" ~doc)
    Term.(const run_promote $ socket_arg $ host_arg $ port_arg)

let connections_arg =
  Arg.(
    value
    & opt (int_at_least 1) 4
    & info [ "connections"; "c" ] ~docv:"N"
        ~doc:"Closed-loop connections (one domain each).")

let duration_arg =
  Arg.(
    value
    & opt float 5.
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Measurement window.")

let batch_arg =
  Arg.(
    value
    & opt int 64
    & info [ "batch" ] ~docv:"N" ~doc:"Query points per request.")

let with_std_arg =
  Arg.(
    value & flag
    & info [ "with-std" ]
        ~doc:"Request predictive standard deviations too.")

let loadgen_json_arg =
  Arg.(
    value
    & opt string "loadgen.json"
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the throughput/latency record as JSON to $(docv).")

let endpoint_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "endpoint" ] ~docv:"ADDR"
        ~doc:
          "Additional replica endpoint (tcp://host:port or unix://path); \
           repeatable. Connections round-robin over the primary address \
           and every $(docv) — point them at a leader and its followers \
           to measure replicated read fan-out.")

let update_every_arg =
  Arg.(
    value
    & opt int 0
    & info [ "update-every" ] ~docv:"N"
        ~doc:
          "Turn every $(docv)-th request of each connection into an \
           $(b,update) carrying a few random observation rows (mutates \
           the served model — scratch stores only; updates must reach \
           the leader). 0 disables. The report then breaks latency down \
           per opcode.")

let stats_every_arg =
  Arg.(
    value
    & opt int 0
    & info [ "stats-every" ] ~docv:"N"
        ~doc:
          "Mix one $(b,stats) request into every $(docv) requests of \
           each connection. 0 disables.")

let loadgen_ensemble_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ensemble" ] ~docv:"NAME"
        ~doc:
          "Route every second predict slot through $(b,predict_ensemble) \
           against the ensemble $(docv) (same points matrix) — contrasts \
           single-model and BMA serving latency under one load; the \
           report gains a $(b,predict_ensemble) breakdown.")

let run_loadgen common _verbose socket host port connections duration batch
    with_std deadline_ms update_every stats_every ensemble trace json_file
    endpoints =
  let _, _, meta = common in
  with_obs ~trace ~metrics:None "repro_loadgen" @@ fun () ->
  let addrs =
    address_of socket host port
    :: List.map (parse_addr_or_die "--endpoint") endpoints
  in
  let summary =
    try
      Server.Loadgen.run ~connections ~duration_s:duration ~batch ~with_std
        ?deadline_ms ~update_every ~stats_every ?ensemble ~meta addrs
    with
    | Server.Client.Transport msg -> die_transport msg
    | Failure msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  Format.printf "%a@." Server.Loadgen.pp summary;
  let oc = open_out json_file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Server.Loadgen.to_json summary);
      output_char oc '\n');
  Printf.printf "loadgen record -> %s\n" json_file

let loadgen_cmd =
  let doc =
    "Closed-loop multi-connection load generator against $(b,repro serve): \
     measures sustained throughput and latency percentiles and records \
     them as a bench-style JSON file. $(b,--update-every)/\
     $(b,--stats-every) mix write and admin traffic into the predict \
     load and report per-opcode latency; $(b,--ensemble) interleaves \
     BMA predictions; $(b,--trace) records client spans whose context \
     propagates into the daemon's trace."
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run_loadgen $ client_common $ verbose_arg $ socket_arg $ host_arg
      $ port_arg $ connections_arg $ duration_arg $ batch_arg $ with_std_arg
      $ deadline_arg $ update_every_arg $ stats_every_arg
      $ loadgen_ensemble_arg $ trace_arg $ loadgen_json_arg $ endpoint_arg)

(* ------------------------------------------------------------------ *)
(* `repro events`: dump a daemon's structured event ring.              *)

let events_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the event dump to $(docv) instead of stdout.")

let run_events socket host port json_file =
  let addr = address_of socket host port in
  try
    let c = Server.Client.connect ~retries:0 addr in
    Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
    match Server.Client.events c with
    | Error e -> die_error "events" e
    | Ok json -> (
        match json_file with
        | None -> print_endline json
        | Some file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                output_string oc json;
                output_char oc '\n');
            Printf.printf "events -> %s\n" file)
  with Server.Client.Transport msg -> die_transport msg

let events_cmd =
  let doc =
    "Dump the structured event ring of the daemon at the given address \
     (start it with $(b,repro serve --events)): promotions, recovery, \
     subscriber connect/drop, link up/down, snapshot installs and slow \
     requests, as JSON with a total-emitted counter and drop count."
  in
  Cmd.v (Cmd.info "events" ~doc)
    Term.(
      const run_events $ socket_arg $ host_arg $ port_arg $ events_json_arg)

(* ------------------------------------------------------------------ *)
(* `repro trace-merge`: stitch per-process Chrome traces into one
   timeline. Every process of a fleet runs on the same host clock
   (CLOCK_MONOTONIC via Obs.Clock), so timestamps are directly
   comparable and no shifting is needed — each input file just becomes
   its own pid row, and the shared trace_id args let the viewer (and
   greps) follow one request across client, leader and follower.       *)

let merge_out_arg =
  Arg.(
    value
    & opt string "merged-trace.json"
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the merged Chrome trace to $(docv).")

let merge_inputs_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"TRACE.json"
        ~doc:
          "Per-process trace files (from $(b,--trace) on repro \
           serve/client/loadgen), in any order.")

let run_trace_merge out inputs =
  let read_file f = In_channel.with_open_bin f In_channel.input_all in
  let merged = ref [] (* reverse order *) in
  let spans = ref 0 in
  List.iteri
    (fun i file ->
      let pid = i + 1 in
      let doc =
        match Serving.Json.of_string (read_file file) with
        | Ok d -> d
        | Error msg ->
            Printf.eprintf "%s: parse error: %s\n" file msg;
            exit 1
      in
      let evs =
        match Serving.Json.member "traceEvents" doc with
        | Some (Serving.Json.Arr l) -> l
        | _ ->
            Printf.eprintf "%s: no traceEvents array\n" file;
            exit 1
      in
      (* label the row with the source file *)
      merged :=
        Serving.Json.Obj
          [
            ("name", Serving.Json.Str "process_name");
            ("ph", Serving.Json.Str "M");
            ("pid", Serving.Json.Num (float_of_int pid));
            ( "args",
              Serving.Json.Obj
                [ ("name", Serving.Json.Str (Filename.basename file)) ] );
          ]
        :: !merged;
      List.iter
        (fun ev ->
          incr spans;
          let retagged =
            match ev with
            | Serving.Json.Obj fields ->
                Serving.Json.Obj
                  (List.map
                     (fun (k, v) ->
                       if k = "pid" then
                         (k, Serving.Json.Num (float_of_int pid))
                       else (k, v))
                     fields)
            | v -> v
          in
          merged := retagged :: !merged)
        evs)
    inputs;
  let doc =
    Serving.Json.Obj
      [
        ("displayTimeUnit", Serving.Json.Str "ms");
        ("traceEvents", Serving.Json.Arr (List.rev !merged));
      ]
  in
  let oc = open_out_bin out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Serving.Json.to_string doc));
  Printf.printf "merged %d event(s) from %d trace(s) -> %s\n" !spans
    (List.length inputs) out

let trace_merge_cmd =
  let doc =
    "Merge per-process Chrome trace files (client, leader, follower) \
     into one timeline: each input becomes its own process row; the \
     $(b,trace_id) args stamped by wire-level trace propagation let \
     chrome://tracing or Perfetto follow one update from the client \
     span through the daemon's queue/kernel spans to the follower's \
     replication apply. All processes must share a host (one monotonic \
     clock)."
  in
  Cmd.v (Cmd.info "trace-merge" ~doc)
    Term.(const run_trace_merge $ merge_out_arg $ merge_inputs_arg)

(* ------------------------------------------------------------------ *)
(* `repro stats`: one fully instrumented fit + batch predict, followed
   by the numerical-health readout and the metrics exposition. *)

let gauge_line label name =
  match Obs.Metrics.find_gauge name with
  | Some g when Obs.Metrics.gauge_is_set g ->
      Printf.printf "  %-28s %.6g\n" label (Obs.Metrics.gauge_value g)
  | _ -> Printf.printf "  %-28s (not recorded)\n" label

let run_stats (scale_name, (cfg : Experiments.Config.t)) verbose circuit
    metric_opt k trace metrics =
  let progress = progress_of verbose in
  let tb = testbench_of cfg circuit in
  let metric = resolve_metric tb metric_opt in
  Obs.Trace.start ();
  Obs.Metrics.enable ();
  let artifact =
    Obs.Trace.with_span ~cat:"cli" "repro_stats" @@ fun _ ->
    progress "fitting early-stage model (prior)";
    let prep = Experiments.Runner.prepare cfg tb ~metric in
    let data_rng, cv_rng = fit_rngs cfg ~metric in
    let xs, f =
      Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout ~metric
        ~rng:data_rng ~k ()
    in
    let g = Polybasis.Basis.design_matrix prep.late_basis xs in
    progress (Printf.sprintf "fusing %d late-stage samples (BMF-PS)" k);
    let config = { Bmf.Fusion.default_config with cv_folds = cfg.cv_folds } in
    let fitted =
      Bmf.Fusion.fit_design ~rng:cv_rng ~config ~early:prep.early ~g ~f
        Bmf.Fusion.Bmf_ps
    in
    let meta =
      {
        Serving.Artifact.circuit;
        metric = tb.metrics.(metric);
        scale = scale_name;
        seed = cfg.seed;
      }
    in
    let artifact =
      Serving.Artifact.of_fit ~meta ~basis:prep.late_basis ~prior:fitted.prior
        ~hyper:fitted.hyper ~cv_error:fitted.cv_error ~g ~f ()
    in
    let pred = Serving.Predictor.of_artifact artifact in
    ignore (Serving.Predictor.predict_with_std pred (query_points artifact));
    artifact
  in
  Obs.Trace.stop ();
  Obs.Metrics.disable ();
  Printf.printf "instrumented fit: %s\n\n" (describe artifact);
  Printf.printf "numerical health:\n";
  gauge_line "samples (K)" "bmf_fit_samples";
  gauge_line "basis terms (M)" "bmf_fit_terms";
  gauge_line "prior nonzero mean" "bmf_fit_prior_nonzero_mean";
  gauge_line "selected hyper" "bmf_fit_hyper";
  gauge_line "cv error" "bmf_fit_cv_error";
  gauge_line "cv residual norm" "bmf_cv_residual_norm";
  gauge_line "woodbury core cond est" "bmf_fit_woodbury_cond";
  gauge_line "cholesky cond est" "bmf_fit_cholesky_cond";
  gauge_line "min cholesky pivot" "bmf_map_solve_pivot_min";
  gauge_line "train residual norm" "bmf_fit_train_residual_norm";
  gauge_line "train residual (rel)" "bmf_fit_train_residual_rel";
  let spans, instants =
    List.fold_left
      (fun (s, i) ev ->
        match ev with
        | Obs.Trace.Complete _ -> (s + 1, i)
        | Obs.Trace.Instant _ -> (s, i + 1))
      (0, 0) (Obs.Trace.events ())
  in
  Printf.printf "\ntrace: %d spans, %d instants recorded\n" spans instants;
  Option.iter
    (fun file ->
      Obs.Trace.write_file file;
      Printf.printf "trace written to %s\n" file)
    trace;
  let exposition = Obs.Metrics.to_prometheus () in
  Option.iter
    (fun file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc exposition);
      Printf.printf "metrics written to %s\n" file)
    metrics;
  Printf.printf "\nmetrics:\n%s" exposition

let stats_cmd =
  let doc =
    "Run one fully instrumented BMF-PS fit and batch predict (nothing is \
     persisted), then print the numerical-health telemetry — condition \
     estimates, Cholesky pivots, residual norms, prior-selection outcome \
     — and the full Prometheus metrics exposition."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run_stats $ common_named $ verbose_arg $ circuit_arg $ metric_arg
      $ fit_samples_arg $ trace_arg $ metrics_arg)

let () =
  let doc =
    "Reproduction of 'Bayesian Model Fusion: Large-Scale Performance \
     Modeling of Analog and Mixed-Signal Circuits by Reusing Early-Stage \
     Data' (DAC 2013 / TCAD 2016)."
  in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table_cmd;
            fig_cmd;
            all_cmd;
            ablation_cmd;
            info_cmd;
            fit_cmd;
            predict_cmd;
            update_cmd;
            models_cmd;
            ensemble_cmd;
            recover_cmd;
            serve_cmd;
            promote_cmd;
            client_cmd;
            loadgen_cmd;
            events_cmd;
            trace_merge_cmd;
            stats_cmd;
          ]))
