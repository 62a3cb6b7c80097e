type early_fit = Omp_early | Least_squares_early

type prepared = {
  tb : Circuit.Testbench.t;
  metric : int;
  late_basis : Polybasis.Basis.t;
  early : float option array;
  early_error_pct : float;
  early_terms : int;
}

(* Progress sink: every runner callback lands in the observability layer
   (an instant trace event plus a counter) and is then forwarded to the
   caller's callback. The default callback is silent, but the obs leg
   still fires, so `--trace` captures experiment progress with no
   verbosity flag. *)
let m_progress =
  Obs.Metrics.counter ~help:"Runner progress events emitted"
    "bmf_runner_progress_total"

let observe_progress msg =
  Obs.Trace.instant ~cat:"runner" msg;
  Obs.Metrics.inc m_progress

let silent (_ : string) = ()

let route progress msg =
  observe_progress msg;
  progress msg

let prepare ?(early_fit = Omp_early) (cfg : Config.t) tb ~metric =
  let rng = Stats.Rng.create (cfg.Config.seed + (metric * 613)) in
  let stage = Circuit.Stage.Schematic in
  let xs, f = Circuit.Testbench.draw_dataset tb ~stage ~metric ~rng ~k:cfg.early_samples () in
  let basis = Circuit.Testbench.schematic_basis tb in
  let g = Polybasis.Basis.design_matrix basis xs in
  let m = Polybasis.Basis.size basis in
  let coeffs =
    match early_fit with
    | Least_squares_early ->
        if cfg.early_samples < m then
          invalid_arg "Runner.prepare: too few early samples for least squares";
        Regression.Least_squares.fit_design ~g ~f
    | Omp_early ->
        let max_terms = Stdlib.min m (cfg.early_samples / 3) in
        (Regression.Omp.fit_design ~rng ~g ~f
           (Regression.Omp.Cross_validation
              { folds = cfg.cv_folds; max_terms }))
          .Regression.Omp.coeffs
  in
  (* held-out check of the early model *)
  let xs_t, f_t =
    Circuit.Testbench.draw_dataset tb ~stage ~metric ~rng ~k:cfg.test_samples ()
  in
  let g_t = Polybasis.Basis.design_matrix basis xs_t in
  let early_error_pct =
    100. *. Linalg.Vec.rel_error (Linalg.Mat.gemv g_t coeffs) f_t
  in
  let early_terms =
    Array.fold_left
      (fun acc c -> if Float.abs c > 1e-12 then acc + 1 else acc)
      0 coeffs
  in
  let late_basis, early =
    Circuit.Testbench.layout_basis_with_prior tb ~early_coeffs:coeffs
  in
  { tb; metric; late_basis; early; early_error_pct; early_terms }

type cell = { mean_pct : float; std_pct : float }

type accuracy = {
  circuit : string;
  metric : string;
  sample_sizes : int list;
  methods : Methods.t list;
  cells : cell array array;
  repeats : int;
}

(* One repeat: draw pool + test set, then evaluate every (K, method). *)
let run_repeat ~progress ~(cfg : Config.t) ~(prep : prepared) ~methods ~rng
    ~errors ~rep =
  let tb = prep.tb and metric = prep.metric in
  let k_max = List.fold_left Stdlib.max 1 cfg.Config.sample_sizes in
  let stage = Circuit.Stage.Layout in
  let xs_pool, f_pool =
    Circuit.Testbench.draw_dataset tb ~stage ~metric ~rng ~k:k_max ()
  in
  let g_pool = Polybasis.Basis.design_matrix prep.late_basis xs_pool in
  let xs_t, f_t =
    Circuit.Testbench.draw_dataset tb ~stage ~metric ~rng ~k:cfg.test_samples ()
  in
  let g_t = Polybasis.Basis.design_matrix prep.late_basis xs_t in
  List.iteri
    (fun ki k ->
      let g = Linalg.Mat.copy (Linalg.Mat.view_rows g_pool k) in
      let f = Array.sub f_pool 0 k in
      let problem =
        {
          Methods.g;
          f;
          early = prep.early;
          cv_folds = cfg.cv_folds;
          omp_max_terms = Config.omp_max_terms cfg ~k;
        }
      in
      List.iteri
        (fun mi method_ ->
          let coeffs = Methods.fit ~rng method_ problem in
          let err =
            100. *. Linalg.Vec.rel_error (Linalg.Mat.gemv g_t coeffs) f_t
          in
          errors.(ki).(mi) <- err :: errors.(ki).(mi))
        methods;
      progress
        (Printf.sprintf "%s/%s repeat %d K=%d done"
           tb.Circuit.Testbench.name
           tb.Circuit.Testbench.metrics.(metric)
           rep k))
    cfg.sample_sizes

let accuracy ?(progress = silent) ?(methods = Methods.paper_methods)
    (cfg : Config.t) (prep : prepared) =
  let progress = route progress in
  let n_sizes = List.length cfg.Config.sample_sizes in
  let n_methods = List.length methods in
  let errors = Array.init n_sizes (fun _ -> Array.make n_methods []) in
  let master = Stats.Rng.create (cfg.seed + 17 + (prep.metric * 7919)) in
  for rep = 1 to cfg.repeats do
    let rng = Stats.Rng.split master in
    run_repeat ~progress ~cfg ~prep ~methods ~rng ~errors ~rep
  done;
  let cells =
    Array.map
      (Array.map (fun samples ->
           let v = Array.of_list samples in
           {
             mean_pct = Stats.Describe.mean v;
             std_pct = Stats.Describe.std v;
           }))
      errors
  in
  {
    circuit = prep.tb.Circuit.Testbench.name;
    metric = prep.tb.Circuit.Testbench.metrics.(prep.metric);
    sample_sizes = cfg.sample_sizes;
    methods;
    cells;
    repeats = cfg.repeats;
  }

type cost_entry = {
  method_ : Methods.t;
  samples : int;
  errors_pct : (string * float) list;
  sim_hours : float;
  fit_seconds : float;
  total_hours : float;
}

let cost_comparison ?(progress = silent) (cfg : Config.t) tb ~metrics
    ~omp_samples ~bmf_samples =
  let progress = route progress in
  let entry method_ samples =
    let fit_seconds = ref 0. in
    let errors =
      List.map
        (fun metric ->
          progress
            (Printf.sprintf "cost: %s K=%d metric %s"
               (Methods.name method_) samples
               tb.Circuit.Testbench.metrics.(metric));
          let prep = prepare cfg tb ~metric in
          let rng = Stats.Rng.create (cfg.seed + 31 + metric) in
          let xs, f =
            Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout
              ~metric ~rng ~k:samples ()
          in
          let g = Polybasis.Basis.design_matrix prep.late_basis xs in
          let xs_t, f_t =
            Circuit.Testbench.draw_dataset tb ~stage:Circuit.Stage.Layout
              ~metric ~rng ~k:cfg.test_samples ()
          in
          let g_t = Polybasis.Basis.design_matrix prep.late_basis xs_t in
          let problem =
            {
              Methods.g;
              f;
              early = prep.early;
              cv_folds = cfg.cv_folds;
              omp_max_terms = Config.omp_max_terms cfg ~k:samples;
            }
          in
          let coeffs, seconds = Methods.fit_timed ~rng method_ problem in
          fit_seconds := !fit_seconds +. seconds;
          ( tb.Circuit.Testbench.metrics.(metric),
            100. *. Linalg.Vec.rel_error (Linalg.Mat.gemv g_t coeffs) f_t ))
        metrics
    in
    let sim_hours =
      Circuit.Testbench.simulation_hours tb ~stage:Circuit.Stage.Layout
        ~samples
    in
    {
      method_;
      samples;
      errors_pct = errors;
      sim_hours;
      fit_seconds = !fit_seconds;
      total_hours = sim_hours +. (!fit_seconds /. 3600.);
    }
  in
  [ entry Methods.Omp omp_samples; entry Methods.Bmf_ps bmf_samples ]

type solver_timing = {
  samples : int;
  omp_seconds : float;
  bmf_direct_seconds : float;
  bmf_fast_seconds : float;
}

let solver_timings ?(progress = silent) ?(with_direct = true)
    (cfg : Config.t) (prep : prepared) =
  let progress = route progress in
  let rng = Stats.Rng.create (cfg.Config.seed + 47 + prep.metric) in
  let k_max = List.fold_left Stdlib.max 1 cfg.sample_sizes in
  let xs_pool, f_pool =
    Circuit.Testbench.draw_dataset prep.tb ~stage:Circuit.Stage.Layout
      ~metric:prep.metric ~rng ~k:k_max ()
  in
  let g_pool = Polybasis.Basis.design_matrix prep.late_basis xs_pool in
  List.map
    (fun k ->
      progress (Printf.sprintf "solver timing K=%d" k);
      let g = Linalg.Mat.copy (Linalg.Mat.view_rows g_pool k) in
      let f = Array.sub f_pool 0 k in
      let problem =
        {
          Methods.g;
          f;
          early = prep.early;
          cv_folds = cfg.cv_folds;
          omp_max_terms = Config.omp_max_terms cfg ~k;
        }
      in
      let _, omp_seconds = Methods.fit_timed ~rng Methods.Omp problem in
      let time_bmf solver =
        let t0 = Unix.gettimeofday () in
        let config = { Bmf.Fusion.default_config with
                       solver = Some solver; cv_folds = cfg.cv_folds } in
        let _ =
          Bmf.Fusion.fit_design ~rng ~config ~early:prep.early ~g ~f
            Bmf.Fusion.Bmf_ps
        in
        Unix.gettimeofday () -. t0
      in
      let bmf_fast_seconds = time_bmf Bmf.Map_solver.Fast_woodbury in
      let bmf_direct_seconds =
        if with_direct then time_bmf Bmf.Map_solver.Direct_cholesky else nan
      in
      { samples = k; omp_seconds; bmf_direct_seconds; bmf_fast_seconds })
    cfg.sample_sizes
