(* Tests for the Domains work pool: lifecycle, ordered results,
   exception propagation, chunk coverage, and the determinism bar the
   library promises — identical bits at -j 1 and -j 8 all the way up to
   serialized model artifacts. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_float_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every test restores the automatic shared-pool sizing on the way out
   so suites that run after this one see the default configuration. *)
let with_jobs j f =
  Parallel.Pool.set_default_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_default_jobs 0) f

(* ------------------------------------------------------------------ *)
(* Pool lifecycle and batch semantics                                 *)

let test_lifecycle () =
  let t = Parallel.Pool.create ~jobs:3 in
  check_int "lanes" 3 (Parallel.Pool.jobs t);
  let out = Parallel.Pool.run_on t [| (fun () -> 1); (fun () -> 2) |] in
  check_int "first" 1 out.(0);
  check_int "second" 2 out.(1);
  Parallel.Pool.shutdown t;
  (* idempotent *)
  Parallel.Pool.shutdown t

let test_with_pool () =
  let v =
    Parallel.Pool.with_pool ~jobs:2 (fun t ->
        Array.fold_left ( + ) 0
          (Parallel.Pool.map_on t (fun x -> x * x) (Array.init 10 Fun.id)))
  in
  check_int "sum of squares" 285 v

let test_ordered_results () =
  Parallel.Pool.with_pool ~jobs:4 @@ fun t ->
  let n = 100 in
  let out =
    Parallel.Pool.run_on t
      (Array.init n (fun i () ->
           (* stagger completion so results cannot land in submit order *)
           if i land 3 = 0 then Domain.cpu_relax ();
           i * 7))
  in
  Array.iteri (fun i v -> check_int (Printf.sprintf "slot %d" i) (i * 7) v) out

let test_empty_and_single () =
  Parallel.Pool.with_pool ~jobs:2 @@ fun t ->
  check_int "empty batch" 0 (Array.length (Parallel.Pool.run_on t [||]));
  let out = Parallel.Pool.run_on t [| (fun () -> 42) |] in
  check_int "single task" 42 out.(0)

let test_exception_propagates () =
  Parallel.Pool.with_pool ~jobs:4 @@ fun t ->
  let ran = Atomic.make 0 in
  let thunks =
    Array.init 16 (fun i () ->
        ignore (Atomic.fetch_and_add ran 1);
        if i = 5 then failwith "task five";
        if i = 11 then failwith "task eleven";
        i)
  in
  (match Parallel.Pool.run_on t thunks with
  | _ -> Alcotest.fail "expected a task failure to re-raise"
  | exception Failure msg ->
      (* lowest-index failure wins, deterministically *)
      Alcotest.(check string) "first failure" "task five" msg);
  (* the batch drained fully before re-raising *)
  check_int "all tasks ran" 16 (Atomic.get ran);
  (* the pool survives a failed batch *)
  let out = Parallel.Pool.run_on t [| (fun () -> 1); (fun () -> 2) |] in
  check_int "pool usable after failure" 3 (out.(0) + out.(1))

let test_nested_batch_runs_inline () =
  Parallel.Pool.with_pool ~jobs:2 @@ fun t ->
  let out =
    Parallel.Pool.run_on t
      (Array.init 4 (fun i () ->
           (* a batch submitted from inside a task must not deadlock *)
           Array.fold_left ( + ) 0
             (Parallel.Pool.run_on t (Array.init 3 (fun j () -> i + j)))))
  in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "nested %d" i) ((3 * i) + 3) v)
    out

let test_chunks_cover_range () =
  Parallel.Pool.with_pool ~jobs:3 @@ fun t ->
  List.iter
    (fun n ->
      let hits = Array.make n 0 in
      Parallel.Pool.chunks_on t ~grain:4 ~n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.iteri
        (fun i h -> check_int (Printf.sprintf "n=%d index %d" n i) 1 h)
        hits)
    [ 1; 3; 4; 7; 64; 101 ]

(* ------------------------------------------------------------------ *)
(* Determinism: bit-equality across job counts                        *)

let sum_with_jobs data jobs =
  with_jobs jobs @@ fun () ->
  (* the library pattern: private accumulators per chunk, merged in
     index order on the caller *)
  let n = Array.length data in
  let parts =
    Parallel.Pool.map
      (fun (lo, hi) ->
        let acc = ref 0. in
        for i = lo to hi - 1 do
          acc := !acc +. data.(i)
        done;
        !acc)
      (Array.init 8 (fun c ->
           let base = n / 8 and rem = n mod 8 in
           let lo = (c * base) + Stdlib.min c rem in
           (lo, lo + base + (if c < rem then 1 else 0))))
  in
  Array.fold_left ( +. ) 0. parts

let test_ordered_reduction_bits () =
  let rng = Stats.Rng.create 7 in
  let data = Array.init 4096 (fun _ -> Stats.Rng.gaussian rng) in
  let s1 = sum_with_jobs data 1 in
  let s8 = sum_with_jobs data 8 in
  check_float_bits "chunked sum bits j1 = j8" s1 s8

let test_design_matrix_bits () =
  let rng = Stats.Rng.create 11 in
  let r = 6 in
  let basis = Polybasis.Basis.total_degree ~r ~d:2 in
  let xs = Stats.Sampling.monte_carlo rng ~k:300 ~r in
  let run jobs =
    with_jobs jobs @@ fun () -> Polybasis.Basis.design_matrix basis xs
  in
  let g1 = run 1 and g8 = run 8 in
  let k, m = Linalg.Mat.dims g1 in
  for i = 0 to k - 1 do
    for j = 0 to m - 1 do
      check_float_bits
        (Printf.sprintf "g[%d,%d]" i j)
        (Linalg.Mat.get g1 i j) (Linalg.Mat.get g8 i j)
    done
  done

(* Full pipeline: fit + artifact serialization must be byte-equal at
   -j 1 and -j 8 — the ISSUE's acceptance bar. *)
let fit_artifact_bytes jobs =
  with_jobs jobs @@ fun () ->
  let rng = Stats.Rng.create 20130613 in
  let r = 10 in
  let basis = Polybasis.Basis.linear r in
  let m = Polybasis.Basis.size basis in
  let truth =
    Array.init m (fun i -> if i = 0 then 2. else 1. /. float_of_int (i + 1))
  in
  let early =
    Array.mapi
      (fun i c ->
        if i mod 7 = 3 then None
        else Some (c *. (1. +. (0.1 *. Stats.Rng.gaussian rng))))
      truth
  in
  let xs = Stats.Sampling.monte_carlo rng ~k:60 ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let f =
    Array.init 60 (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) truth
        +. (0.01 *. Stats.Rng.gaussian rng))
  in
  let cv_rng = Stats.Rng.create 99 in
  let fitted =
    Bmf.Fusion.fit_design ~rng:cv_rng ~early ~g ~f Bmf.Fusion.Bmf_ps
  in
  let meta =
    {
      Serving.Artifact.circuit = "synthetic";
      metric = "test";
      scale = "unit";
      seed = 20130613;
    }
  in
  let artifact =
    Serving.Artifact.of_fit ~meta ~basis ~prior:fitted.prior
      ~hyper:fitted.hyper ~cv_error:fitted.cv_error ~g ~f ()
  in
  Serving.Artifact.to_string Serving.Artifact.Binary artifact

let test_artifact_bytes_equal () =
  let b1 = fit_artifact_bytes 1 in
  let b8 = fit_artifact_bytes 8 in
  check_int "artifact length" (String.length b1) (String.length b8);
  check_bool "artifact bytes j1 = j8" true (String.equal b1 b8)

let test_cv_errors_bits () =
  let rng = Stats.Rng.create 31 in
  let r = 8 in
  let basis = Polybasis.Basis.linear r in
  let m = Polybasis.Basis.size basis in
  let xs = Stats.Sampling.monte_carlo rng ~k:48 ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let truth = Array.init m (fun i -> float_of_int (i + 1) /. 10.) in
  let f =
    Array.init 48 (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) truth
        +. (0.02 *. Stats.Rng.gaussian rng))
  in
  let prior = Bmf.Prior.zero_mean (Array.make m (Some 0.5)) in
  let run jobs =
    with_jobs jobs @@ fun () ->
    Bmf.Hyper.cv_errors
      ~rng:(Stats.Rng.create 5)
      ~folds:6 ~g ~f ~prior
      ~candidates:[ 1e-4; 1e-2; 1.; 100. ]
      ()
  in
  let e1 = run 1 and e8 = run 8 in
  List.iter2
    (fun (t1, v1) (t8, v8) ->
      check_float_bits "candidate" t1 t8;
      check_float_bits "cv error bits j1 = j8" v1 v8)
    e1 e8

(* ------------------------------------------------------------------ *)
(* Shared pool configuration                                          *)

let test_default_jobs_override () =
  Parallel.Pool.set_default_jobs 3;
  check_int "override" 3 (Parallel.Pool.default_jobs ());
  Parallel.Pool.set_default_jobs 0;
  check_bool "auto is at least one" true (Parallel.Pool.default_jobs () >= 1);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool.set_default_jobs: negative job count") (fun () ->
      Parallel.Pool.set_default_jobs (-1))

let test_create_rejects_zero () =
  Alcotest.check_raises "zero jobs"
    (Invalid_argument "Pool.create: jobs must be at least 1") (fun () ->
      ignore (Parallel.Pool.create ~jobs:0))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "with_pool" `Quick test_with_pool;
          Alcotest.test_case "ordered results" `Quick test_ordered_results;
          Alcotest.test_case "empty and single" `Quick test_empty_and_single;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested batch inline" `Quick
            test_nested_batch_runs_inline;
          Alcotest.test_case "chunk coverage" `Quick test_chunks_cover_range;
          Alcotest.test_case "create rejects zero" `Quick
            test_create_rejects_zero;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "ordered reduction bits" `Quick
            test_ordered_reduction_bits;
          Alcotest.test_case "design matrix bits" `Quick
            test_design_matrix_bits;
          Alcotest.test_case "cv errors bits" `Quick test_cv_errors_bits;
          Alcotest.test_case "artifact bytes j1 = j8" `Quick
            test_artifact_bytes_equal;
        ] );
      ( "config",
        [
          Alcotest.test_case "default jobs override" `Quick
            test_default_jobs_override;
        ] );
    ]
