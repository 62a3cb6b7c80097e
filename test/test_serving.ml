(* Tests for the serving subsystem: artifact codecs and checksums, the
   on-disk store, the batch predictor, and exact incremental updates. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let rng = Stats.Rng.create 20130613

(* A small fitted problem with a nonzero-mean prior, the serving
   subsystem's natural input. *)
type synth = {
  basis : Polybasis.Basis.t;
  prior : Bmf.Prior.t;
  hyper : float;
  g : Linalg.Mat.t;
  f : Linalg.Vec.t;
  truth : Linalg.Vec.t;
}

let make_synth ?(rng = rng) ?(k = 40) ?(r = 25) ?(noise = 0.01) () =
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

let queries ?(rng = rng) (s : synth) n =
  let r = Polybasis.Basis.dim s.basis in
  Linalg.Mat.of_rows (List.init n (fun _ -> Stats.Rng.gaussian_vec rng r))

(* ------------------------------------------------------------------ *)
(* Artifact codecs                                                     *)

(* FNV-1a 64 known answers, over whole strings and byte ranges, and a
   hash that allocates O(1) minor words whatever the range size: it runs
   on every save, load, journal append and recovery. *)
let test_fnv64 () =
  List.iter
    (fun (input, hex) ->
      check_string (Printf.sprintf "fnv64 %S" input) hex
        (Serving.Artifact.checksum_hex input);
      (* the same bytes inside a larger string *)
      let padded = "xy" ^ input ^ "z" in
      check_string (Printf.sprintf "fnv64 range %S" input) hex
        (Printf.sprintf "%016Lx"
           (Serving.Codec.fnv64 padded 2 (String.length input))))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ];
  check_bool "range past the end refused" true
    (try
       ignore (Serving.Codec.fnv64 "abc" 2 2);
       false
     with Invalid_argument _ -> true);
  let payload = String.init 100_000 (fun i -> Char.chr (i land 255)) in
  let hash () = Serving.Codec.fnv64 payload 0 (String.length payload) in
  ignore (hash ());
  let before = Gc.minor_words () in
  ignore (hash ());
  let words = Gc.minor_words () -. before in
  if words > 16. then
    Alcotest.failf "fnv64 allocates %.0f minor words on 100 kB (budget 16)"
      words

let test_of_fit_matches_solver () =
  let s = make_synth () in
  let a = artifact_of s in
  let direct =
    Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g:s.g ~f:s.f
      ~prior:s.prior ~hyper:s.hyper ()
  in
  check_bool "coeffs bit-identical to Map_solver fast path" true
    (Array.for_all2 (fun a b -> Float.equal a b) a.coeffs direct)

let roundtrip format () =
  let s = make_synth () in
  let a = artifact_of s in
  let encoded = Serving.Artifact.to_string format a in
  let b =
    match Serving.Artifact.of_string encoded with
    | Ok b -> b
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  check_int "rev" a.rev b.rev;
  check_string "metric" a.meta.metric b.meta.metric;
  check_bool "hyper" true (Float.equal a.hyper b.hyper);
  check_bool "sigma0_sq" true (Float.equal a.sigma0_sq b.sigma0_sq);
  check_bool "coeffs bit-identical" true
    (Array.for_all2 Float.equal a.coeffs b.coeffs);
  (* the serving contract: a loaded artifact predicts bit-identically *)
  let q = queries s 64 in
  let pa = Serving.Predictor.predict (Serving.Predictor.of_artifact a) q in
  let pb = Serving.Predictor.predict (Serving.Predictor.of_artifact b) q in
  check_string "prediction fingerprint" (Serving.Artifact.fingerprint pa)
    (Serving.Artifact.fingerprint pb)

let test_roundtrip_json = roundtrip Serving.Artifact.Json

let test_roundtrip_binary = roundtrip Serving.Artifact.Binary

let test_binary_corruption_detected () =
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  let encoded = Serving.Artifact.to_string Serving.Artifact.Binary a in
  (* flip one payload byte past the 16-byte magic+checksum header *)
  let buf = Bytes.of_string encoded in
  let pos = 16 + (Bytes.length buf / 3) in
  Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0x40));
  (match Serving.Artifact.of_string (Bytes.to_string buf) with
  | Ok _ -> Alcotest.fail "corrupt binary artifact accepted"
  | Error _ -> ());
  (* truncation must be rejected too, not crash *)
  match
    Serving.Artifact.of_string (String.sub encoded 0 (String.length encoded / 2))
  with
  | Ok _ -> Alcotest.fail "truncated binary artifact accepted"
  | Error _ -> ()

let test_json_corruption_detected () =
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  let encoded = Serving.Artifact.to_string Serving.Artifact.Json a in
  (* alter a payload value the checksum must cover: bump the seed digit
     (a 17th-mantissa-digit flip could round back to the same double
     and so legitimately re-verify) *)
  let tag = "\"seed\":" in
  let pos = Str.search_forward (Str.regexp_string tag) encoded 0 in
  let pos = pos + String.length tag in
  let buf = Bytes.of_string encoded in
  check_string "seed digit" "7" (String.make 1 (Bytes.get buf pos));
  Bytes.set buf pos '8';
  match Serving.Artifact.of_string (Bytes.to_string buf) with
  | Ok _ -> Alcotest.fail "corrupt JSON artifact accepted"
  | Error e ->
      check_bool "mentions checksum" true
        (Str.string_match (Str.regexp ".*checksum.*") e 0)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-store-test-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists root then rm root;
  Fun.protect ~finally:(fun () -> if Sys.file_exists root then rm root)
    (fun () -> f root)

let test_store_save_load_list () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  (match Serving.Store.load ~root meta with
  | Ok _ -> Alcotest.fail "load from empty store succeeded"
  | Error _ -> ());
  let file = Serving.Store.save ~root a in
  check_bool "file exists" true (Sys.file_exists file);
  (match Serving.Store.load ~root meta with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok b ->
      check_bool "coeffs survive" true
        (Array.for_all2 Float.equal a.coeffs b.coeffs));
  check_bool "verify ok" true
    (Result.is_ok (Serving.Store.verify ~root meta));
  (* saving as JSON replaces the stale binary copy: still one entry *)
  let file_json = Serving.Store.save ~format:Serving.Artifact.Json ~root a in
  check_bool "json file exists" true (Sys.file_exists file_json);
  check_bool "binary copy removed" false (Sys.file_exists file);
  let entries = Serving.Store.list ~root in
  check_int "one entry" 1 (List.length entries);
  check_bool "entry ok" true
    (List.for_all
       (fun (e : Serving.Store.entry) -> Result.is_ok e.status)
       entries)

let test_store_atomic_save () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  (* saves go through a private temp file + rename; none may survive,
     in either codec or when overwriting an existing entry *)
  ignore (Serving.Store.save ~root a);
  ignore (Serving.Store.save ~root a);
  ignore (Serving.Store.save ~format:Serving.Artifact.Json ~root a);
  let leftovers =
    Array.to_list (Sys.readdir root)
    |> List.filter (fun f ->
           try
             ignore (Str.search_forward (Str.regexp_string ".tmp.") f 0);
             true
           with Not_found -> false)
  in
  check_int "no temp files left behind" 0 (List.length leftovers);
  let entries = Serving.Store.list ~root in
  check_int "one entry" 1 (List.length entries);
  check_bool "entry verified" true
    (List.for_all
       (fun (e : Serving.Store.entry) -> Result.is_ok e.status)
       entries);
  (* a stray temp file from a crashed writer is invisible to the registry *)
  let oc = open_out (Filename.concat root ".orphan.tmp.1234") in
  output_string oc "partial";
  close_out oc;
  check_int "orphan temp not listed" 1 (List.length (Serving.Store.list ~root))

let test_store_detects_tampering () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  let file = Serving.Store.save ~root a in
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  let buf = Bytes.of_string content in
  Bytes.set buf (len - 5) (Char.chr (Char.code (Bytes.get buf (len - 5)) lxor 1));
  let oc = open_out_bin file in
  output_bytes oc buf;
  close_out oc;
  (match Serving.Store.verify ~root meta with
  | Ok () -> Alcotest.fail "tampered artifact verified"
  | Error _ -> ());
  match Serving.Store.list ~root with
  | [ e ] -> check_bool "listed as corrupt" true (Result.is_error e.status)
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* Predictor                                                           *)

(* The one basis evaluator against a reference built here from its
   definition: each entry is the left-to-right product of
   [Hermite.normalized] over the term's factors. *)
let test_blocked_design_matrix_matches () =
  List.iter
    (fun basis ->
      let r = Polybasis.Basis.dim basis in
      let xs = Stats.Sampling.monte_carlo rng ~k:17 ~r in
      let g = Polybasis.Basis.design_matrix basis xs in
      let terms = Polybasis.Basis.terms basis in
      check_int "rows" 17 (Linalg.Mat.rows g);
      check_int "cols" (Array.length terms) (Linalg.Mat.cols g);
      for i = 0 to 16 do
        let x = Linalg.Mat.row xs i in
        let reference =
          Array.map
            (fun term ->
              Array.fold_left
                (fun acc (v, d) -> acc *. Polybasis.Hermite.normalized d x.(v))
                1. term)
            terms
        in
        check_bool "row bit-identical" true
          (Array.for_all2 Float.equal reference (Linalg.Mat.row g i))
      done)
    [
      Polybasis.Basis.linear 12;
      Polybasis.Basis.quadratic_diagonal 8;
      Polybasis.Basis.total_degree ~r:4 ~d:5;
    ]

let test_predictor_mean_matches_basis () =
  let s = make_synth () in
  let a = artifact_of s in
  let p = Serving.Predictor.of_artifact a in
  let q = queries s 11 in
  let means = Serving.Predictor.predict p q in
  for i = 0 to 10 do
    let expected =
      Polybasis.Basis.predict s.basis ~coeffs:a.coeffs (Linalg.Mat.row q i)
    in
    Alcotest.(check (float 1e-12)) "mean" expected means.(i)
  done

let test_predictor_variance_matches_posterior () =
  let s = make_synth ~k:30 ~r:15 () in
  let a = artifact_of s in
  let p = Serving.Predictor.of_artifact a in
  let post =
    Bmf.Posterior.compute ~sigma0_sq:a.sigma0_sq ~g:s.g ~f:s.f ~prior:s.prior
      ~hyper:s.hyper ()
  in
  let q = queries s 9 in
  for i = 0 to 8 do
    let x = Linalg.Mat.row q i in
    let row = Polybasis.Basis.eval_row s.basis x in
    let mean_post, std_post = Bmf.Posterior.predict post row in
    let mean_srv, std_srv = Serving.Predictor.predict_point_with_std p x in
    check_bool "mean close" true (Float.abs (mean_srv -. mean_post) < 1e-8);
    check_bool "std close" true
      (Float.abs (std_srv -. std_post) < 1e-6 *. Float.max 1. std_post)
  done

(* The allocating entry points wrap the observed kernels: one call must
   still count its points, its batch and its design rows exactly once. *)
let test_predictor_counters_once_per_call () =
  let s = make_synth ~k:20 ~r:8 () in
  let p = Serving.Predictor.of_artifact (artifact_of s) in
  let batch = 7 in
  let q = queries s batch in
  let names =
    [
      ("bmf_predictions_total", float_of_int batch);
      ("bmf_predict_batches_total", 1.);
      ("bmf_design_matrix_rows_total", float_of_int batch);
    ]
  in
  let value name =
    match Obs.Metrics.find_counter name with
    | Some c -> Obs.Metrics.counter_value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  let advances what f =
    let before = List.map (fun (name, _) -> value name) names in
    f ();
    List.iter2
      (fun (name, by) b ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s advances %s by %g" what name by)
          by
          (value name -. b))
      names before
  in
  advances "predict" (fun () -> ignore (Serving.Predictor.predict p q));
  advances "predict_with_std" (fun () ->
      ignore (Serving.Predictor.predict_with_std p q))

let test_predictor_rejects_dim_mismatch () =
  let s = make_synth ~k:20 ~r:10 () in
  let p = Serving.Predictor.of_artifact (artifact_of s) in
  let bad = Linalg.Mat.of_rows [ Stats.Rng.gaussian_vec rng 4 ] in
  let expect_message what f =
    match f () with
    | exception Invalid_argument msg ->
        let has sub =
          try
            ignore (Str.search_forward (Str.regexp_string sub) msg 0);
            true
          with Not_found -> false
        in
        check_bool (what ^ ": names the model") true (has "test/m");
        check_bool (what ^ ": expected dim") true (has "expected 10");
        check_bool (what ^ ": got dim") true (has "got 4")
    | _ -> Alcotest.failf "%s accepted a wrong-width batch" what
  in
  expect_message "predict" (fun () -> ignore (Serving.Predictor.predict p bad));
  expect_message "predict_with_std" (fun () ->
      ignore (Serving.Predictor.predict_with_std p bad))

(* ------------------------------------------------------------------ *)
(* Incremental updates                                                 *)

let test_incremental_matches_cold_refit () =
  let s = make_synth ~k:60 ~r:30 () in
  let a = artifact_of s in
  let k_new = 25 in
  let r = Polybasis.Basis.dim s.basis in
  let xs_new = Stats.Sampling.monte_carlo rng ~k:k_new ~r in
  let g_new = Polybasis.Basis.design_matrix s.basis xs_new in
  let f_new =
    Array.init k_new (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g_new i) s.truth
        +. (0.01 *. Stats.Rng.gaussian rng))
  in
  let upd = Serving.Incremental.of_artifact a in
  Serving.Incremental.add_batch upd ~xs:xs_new ~f:f_new;
  check_int "sample count" (60 + k_new) (Serving.Incremental.num_samples upd);
  let incremental = Serving.Incremental.coeffs upd in
  let m = Polybasis.Basis.size s.basis in
  let g_full =
    Linalg.Mat.init (60 + k_new) m (fun i j ->
        if i < 60 then Linalg.Mat.get s.g i j
        else Linalg.Mat.get g_new (i - 60) j)
  in
  let f_full = Array.append s.f f_new in
  let cold =
    Bmf.Map_solver.solve ~solver:Bmf.Map_solver.Fast_woodbury ~g:g_full
      ~f:f_full ~prior:s.prior ~hyper:s.hyper ()
  in
  let err = Linalg.Vec.norm_inf (Linalg.Vec.sub incremental cold) in
  check_bool
    (Printf.sprintf "incremental = cold refit (err %.3g)" err)
    true (err <= 1e-8)

let test_incremental_single_points () =
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  let upd = Serving.Incremental.of_artifact a in
  let r = Polybasis.Basis.dim s.basis in
  for _ = 1 to 5 do
    let x = Stats.Rng.gaussian_vec rng r in
    let value = Linalg.Vec.dot (Polybasis.Basis.eval_row s.basis x) s.truth in
    Serving.Incremental.add_point upd ~x ~value
  done;
  check_int "count" 25 (Serving.Incremental.num_samples upd);
  (* no-new-data coeffs must equal the stored fit exactly *)
  let fresh = Serving.Incremental.of_artifact a in
  let replay = Serving.Incremental.coeffs fresh in
  let err = Linalg.Vec.norm_inf (Linalg.Vec.sub replay a.coeffs) in
  check_bool "replayed coeffs match stored" true (err <= 1e-10)

let test_incremental_to_artifact_roundtrip () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:30 ~r:15 () in
  let a = artifact_of s in
  ignore (Serving.Store.save ~root a);
  let r = Polybasis.Basis.dim s.basis in
  let xs_new = Stats.Sampling.monte_carlo rng ~k:10 ~r in
  let f_new =
    Array.init 10 (fun i ->
        Linalg.Vec.dot
          (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs_new i))
          s.truth)
  in
  let upd = Serving.Incremental.of_artifact a in
  Serving.Incremental.add_batch upd ~xs:xs_new ~f:f_new;
  let updated = Serving.Incremental.to_artifact upd in
  check_int "revision bumped" (a.rev + 1) updated.rev;
  check_int "samples" 40 (Serving.Artifact.num_samples updated);
  ignore (Serving.Store.save ~root updated);
  match Serving.Store.load ~root meta with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok b ->
      check_int "stored revision" updated.rev b.rev;
      (* the reloaded updater continues from the updated posterior:
         coeffs replay exactly *)
      let replay = Serving.Incremental.coeffs (Serving.Incremental.of_artifact b) in
      let err =
        Linalg.Vec.norm_inf (Linalg.Vec.sub replay updated.coeffs)
      in
      check_bool "updated posterior survives store" true (err <= 1e-10)

let test_incremental_rejects_bad_rows () =
  let s = make_synth ~k:20 ~r:10 () in
  let upd = Serving.Incremental.of_artifact (artifact_of s) in
  check_bool "length mismatch rejected" true
    (try
       Serving.Incremental.add_row upd ~row:[| 1.; 2. |] ~value:0.;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Store filename collisions + legacy names                            *)

let test_store_collision_distinct_files () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  (* sanitize maps both metrics to "gain_bw": before the digest suffix
     these two keys shared one file and silently overwrote each other *)
  let meta_a = { meta with Serving.Artifact.metric = "gain+bw" } in
  let meta_b = { meta with Serving.Artifact.metric = "gain_bw" } in
  let art m =
    Serving.Artifact.of_fit ~meta:m ~basis:s.basis ~prior:s.prior
      ~hyper:s.hyper ~g:s.g ~f:s.f ()
  in
  check_bool "filenames differ" false
    (String.equal
       (Serving.Store.filename meta_a Serving.Artifact.Binary)
       (Serving.Store.filename meta_b Serving.Artifact.Binary));
  let file_a = Serving.Store.save ~root (art meta_a) in
  let file_b = Serving.Store.save ~root (art meta_b) in
  check_bool "both files live" true
    (Sys.file_exists file_a && Sys.file_exists file_b);
  check_int "two registry entries" 2 (List.length (Serving.Store.list ~root));
  (match Serving.Store.load ~root meta_a with
  | Error e -> Alcotest.failf "load gain+bw: %s" e
  | Ok a -> check_string "right artifact back" "gain+bw" a.meta.metric);
  match Serving.Store.load ~root meta_b with
  | Error e -> Alcotest.failf "load gain_bw: %s" e
  | Ok b -> check_string "right artifact back" "gain_bw" b.meta.metric

let test_store_loads_legacy_names () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:20 ~r:10 () in
  let a = artifact_of s in
  let file = Serving.Store.save ~root a in
  (* rewrite the store as an old (pre-digest) build would have left it *)
  let legacy = Filename.concat root "test__m__quick__s7.bmfa" in
  Sys.rename file legacy;
  (match Serving.Store.load ~root meta with
  | Error e -> Alcotest.failf "legacy-named artifact not loaded: %s" e
  | Ok b ->
      check_bool "coeffs survive legacy name" true
        (Array.for_all2 Float.equal a.coeffs b.coeffs));
  (* re-saving migrates: digest name in place, stale legacy copy gone *)
  let file' = Serving.Store.save ~root a in
  check_bool "digest-named file written" true (Sys.file_exists file');
  check_bool "legacy copy removed" false (Sys.file_exists legacy);
  check_int "one registry entry" 1 (List.length (Serving.Store.list ~root))

(* ------------------------------------------------------------------ *)
(* Journal codec                                                       *)

let journal_magic = "BMFJRNL1"

let sample_entries (s : synth) =
  let r = Polybasis.Basis.dim s.basis in
  let entry ~rows ~base_rev m =
    let xs = Stats.Sampling.monte_carlo rng ~k:rows ~r in
    let f =
      Array.init rows (fun i ->
          Linalg.Vec.dot
            (Polybasis.Basis.eval_row s.basis (Linalg.Mat.row xs i))
            s.truth)
    in
    { Serving.Journal.meta = m; base_rev; xs; f }
  in
  [
    entry ~rows:3 ~base_rev:0 meta;
    entry ~rows:1 ~base_rev:7
      { Serving.Artifact.circuit = "gain+bw"; metric = ""; scale = "a__b";
        seed = 0 };
    entry ~rows:5 ~base_rev:2 meta;
  ]

let check_entry msg (a : Serving.Journal.entry) (b : Serving.Journal.entry) =
  check_string (msg ^ ": circuit") a.meta.circuit b.meta.circuit;
  check_string (msg ^ ": metric") a.meta.metric b.meta.metric;
  check_string (msg ^ ": scale") a.meta.scale b.meta.scale;
  check_int (msg ^ ": seed") a.meta.seed b.meta.seed;
  check_int (msg ^ ": base_rev") a.base_rev b.base_rev;
  check_int (msg ^ ": rows") (Linalg.Mat.rows a.xs) (Linalg.Mat.rows b.xs);
  check_int (msg ^ ": cols") (Linalg.Mat.cols a.xs) (Linalg.Mat.cols b.xs);
  check_bool (msg ^ ": xs bit-identical") true (Linalg.Mat.equal a.xs b.xs);
  check_bool (msg ^ ": f bit-identical") true (Array.for_all2 Float.equal a.f b.f)

let test_journal_roundtrip () =
  with_temp_root @@ fun root ->
  let s = make_synth ~k:10 ~r:6 () in
  let entries = sample_entries s in
  let j = Serving.Journal.open_ ~root () in
  List.iter (Serving.Journal.append j) entries;
  check_int "entries counted" 3 (Serving.Journal.entries j);
  Serving.Journal.close j;
  let back, err = Serving.Journal.read ~root in
  check_bool "no tail error" true (Option.is_none err);
  check_int "all entries back" 3 (List.length back);
  List.iter2 (fun a b -> check_entry "round-trip" a b) entries back;
  (* reopening resets; truncate drops entries *)
  let j = Serving.Journal.open_ ~root () in
  check_int "open_ resets" 0 (Serving.Journal.entries j);
  Serving.Journal.append j (List.hd entries);
  Serving.Journal.truncate j;
  Serving.Journal.close j;
  let back, err = Serving.Journal.read ~root in
  check_bool "truncate leaves no error" true (Option.is_none err);
  check_int "truncate drops entries" 0 (List.length back)

let test_journal_fresh_nested_root () =
  with_temp_root @@ fun root ->
  (* [repro serve --dir] on a path whose parents do not exist yet *)
  let nested = List.fold_left Filename.concat root [ "a"; "b"; "c" ] in
  let j = Serving.Journal.open_ ~root:nested () in
  Serving.Journal.close j;
  check_bool "journal created under the nested root" true
    (Sys.file_exists (Serving.Journal.file ~root:nested))

let test_journal_tolerates_torn_tail () =
  let s = make_synth ~k:10 ~r:6 () in
  let entries = sample_entries s in
  let e1, e2 =
    (List.nth entries 0, List.nth entries 2)
  in
  let full =
    journal_magic ^ Serving.Journal.encode_entry e1
    ^ Serving.Journal.encode_entry e2
  in
  (* intact image *)
  let back, err = Serving.Journal.decode_entries full in
  check_bool "intact: no error" true (Option.is_none err);
  check_int "intact: both entries" 2 (List.length back);
  (* header-only file *)
  let back, err = Serving.Journal.decode_entries journal_magic in
  check_bool "empty journal: no error" true (Option.is_none err);
  check_int "empty journal: no entries" 0 (List.length back);
  (* a crash mid-append can tear the tail at any byte: every prefix of
     the second entry must decode to exactly [e1] plus a tail reason *)
  let intact = String.length journal_magic + String.length (Serving.Journal.encode_entry e1) in
  for cut = intact to String.length full - 1 do
    let back, err = Serving.Journal.decode_entries (String.sub full 0 cut) in
    if cut = intact then
      check_bool "clean cut: no error" true (Option.is_none err)
    else
      check_bool
        (Printf.sprintf "cut at %d: tail reason reported" cut)
        true (Option.is_some err);
    check_int (Printf.sprintf "cut at %d: prefix survives" cut) 1
      (List.length back);
    check_entry "prefix" e1 (List.hd back)
  done;
  (* short magic *)
  let back, err = Serving.Journal.decode_entries (String.sub full 0 4) in
  check_bool "short magic: error" true (Option.is_some err);
  check_int "short magic: nothing" 0 (List.length back)

let test_journal_rejects_garbage () =
  let s = make_synth ~k:10 ~r:6 () in
  let e1 = List.hd (sample_entries s) in
  let enc = Serving.Journal.encode_entry e1 in
  let full = journal_magic ^ enc ^ enc in
  (* flip one payload byte of the second entry: its checksum must kill
     it while the first entry survives *)
  let buf = Bytes.of_string full in
  let pos = String.length journal_magic + String.length enc + 16 + 3 in
  Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0x20));
  let back, err = Serving.Journal.decode_entries (Bytes.to_string buf) in
  check_bool "checksum mismatch reported" true (Option.is_some err);
  check_int "intact prefix kept" 1 (List.length back);
  check_entry "surviving entry" e1 (List.hd back);
  (* corrupting the first entry discards everything *)
  let buf = Bytes.of_string full in
  let pos = String.length journal_magic + 16 + 3 in
  Bytes.set buf pos (Char.chr (Char.code (Bytes.get buf pos) lxor 0x20));
  let back, err = Serving.Journal.decode_entries (Bytes.to_string buf) in
  check_bool "first-entry corruption reported" true (Option.is_some err);
  check_int "nothing decodable" 0 (List.length back);
  (* wrong magic *)
  let back, err = Serving.Journal.decode_entries ("XMFJRNL1" ^ enc) in
  check_bool "bad magic reported" true (Option.is_some err);
  check_int "bad magic yields nothing" 0 (List.length back);
  (* an implausible length prefix must not allocate or crash *)
  let huge = Bytes.of_string (journal_magic ^ enc) in
  Bytes.set_int64_le huge (String.length journal_magic) Int64.max_int;
  let back, err = Serving.Journal.decode_entries (Bytes.to_string huge) in
  check_bool "huge length reported" true (Option.is_some err);
  check_int "huge length yields nothing" 0 (List.length back)

(* ------------------------------------------------------------------ *)
(* Online calibration telemetry                                        *)

let cal_meta =
  { Serving.Artifact.circuit = "cal"; metric = "m"; scale = "quick"; seed = 1 }

let with_calibration f =
  Obs.Metrics.enable ();
  Serving.Calibration.reset ();
  Fun.protect
    ~finally:(fun () ->
      Serving.Calibration.reset ();
      Obs.Metrics.disable ())
    f

let checkf_eps msg eps expected got = Alcotest.(check (float eps)) msg expected got

let test_calibration_known_residuals () =
  with_calibration @@ fun () ->
  (* unit-sigma, zero-mean predictions against a hand-picked residual
     stream: z = observed, so coverage at 1/2/3 sigma is countable *)
  let observed = [| 0.5; -0.9; 1.5; -1.8; 2.5; -2.9; 3.5; 0.1 |] in
  let n = Array.length observed in
  Serving.Calibration.record ~meta:cal_meta ~mean:(Array.make n 0.)
    ~std:(Array.make n 1.) ~observed;
  let st = Serving.Calibration.stats cal_meta in
  check_int "samples" n st.Serving.Calibration.samples;
  check_int "window holds all of them" n st.Serving.Calibration.window;
  checkf_eps "coverage |z|<=1 is 3/8" 1e-12 0.375
    st.Serving.Calibration.coverage1;
  checkf_eps "coverage |z|<=2 is 5/8" 1e-12 0.625
    st.Serving.Calibration.coverage2;
  checkf_eps "coverage |z|<=3 is 7/8" 1e-12 0.875
    st.Serving.Calibration.coverage3;
  let rmse_ref =
    sqrt (Array.fold_left (fun a z -> a +. (z *. z)) 0. observed /. float n)
  in
  checkf_eps "rmse" 1e-12 rmse_ref st.Serving.Calibration.rmse;
  let zmean_ref = Array.fold_left ( +. ) 0. observed /. float n in
  checkf_eps "z mean" 1e-12 zmean_ref st.Serving.Calibration.z_mean;
  (* gauges published under the model label *)
  let label = Serving.Calibration.model_label cal_meta in
  (match
     Obs.Metrics.find_gauge ~labels:[ ("model", label) ]
       "bmf_calibration_coverage_1s"
   with
  | None -> Alcotest.fail "coverage gauge not registered"
  | Some g -> checkf_eps "published coverage" 1e-12 0.375
      (Obs.Metrics.gauge_value g));
  match
    Obs.Metrics.find_gauge ~labels:[ ("model", label) ]
      "bmf_calibration_rmse"
  with
  | None -> Alcotest.fail "rmse gauge not registered"
  | Some g -> checkf_eps "published rmse" 1e-12 rmse_ref
      (Obs.Metrics.gauge_value g)

let test_calibration_window_wrap () =
  with_calibration @@ fun () ->
  Serving.Calibration.set_window 4;
  Fun.protect ~finally:(fun () -> Serving.Calibration.set_window 256)
  @@ fun () ->
  (* 4 wild misses followed by 4 perfect hits: the rolling window must
     forget the misses entirely *)
  let shoot z k =
    Serving.Calibration.record ~meta:cal_meta ~mean:(Array.make k 0.)
      ~std:(Array.make k 1.) ~observed:(Array.make k z)
  in
  shoot 10. 4;
  let st = Serving.Calibration.stats cal_meta in
  checkf_eps "all misses" 1e-12 0. st.Serving.Calibration.coverage3;
  shoot 0.5 4;
  let st = Serving.Calibration.stats cal_meta in
  check_int "total samples keep counting" 8 st.Serving.Calibration.samples;
  check_int "window is bounded" 4 st.Serving.Calibration.window;
  checkf_eps "misses rolled out" 1e-12 1. st.Serving.Calibration.coverage1;
  checkf_eps "rmse over the window only" 1e-12 0.5 st.Serving.Calibration.rmse

let test_calibration_degenerate_and_gating () =
  (* disabled metrics: recording is a strict no-op *)
  Obs.Metrics.disable ();
  Serving.Calibration.reset ();
  Serving.Calibration.record ~meta:cal_meta ~mean:[| 0. |] ~std:[| 1. |]
    ~observed:[| 0.1 |];
  let st = Serving.Calibration.stats cal_meta in
  check_int "disabled records nothing" 0 st.Serving.Calibration.samples;
  with_calibration @@ fun () ->
  (* non-positive / non-finite sigmas count as coverage misses, never
     divide-by-zero *)
  Serving.Calibration.record ~meta:cal_meta ~mean:[| 0.; 0.; 0. |]
    ~std:[| 0.; nan; 1. |] ~observed:[| 0.0; 0.0; 0.5 |];
  let st = Serving.Calibration.stats cal_meta in
  check_int "all rows scored" 3 st.Serving.Calibration.window;
  checkf_eps "degenerate sigmas are misses" 1e-12 (1. /. 3.)
    st.Serving.Calibration.coverage3;
  (* length mismatch is a caller bug *)
  check_bool "length mismatch rejected" true
    (try
       Serving.Calibration.record ~meta:cal_meta ~mean:[| 0. |]
         ~std:[| 1.; 1. |] ~observed:[| 0.1 |];
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The allocation-free predict path: the [_into] twins must be
   bit-identical to the allocating calls, and steady-state serving must
   not allocate per query.                                              *)

let test_predict_into_matches () =
  let s = make_synth ~k:30 ~r:12 () in
  let p = Serving.Predictor.of_artifact (artifact_of s) in
  let scratch = Serving.Predictor.Scratch.create ~capacity:8 p in
  List.iter
    (fun n ->
      let q = queries s n in
      let expect = Serving.Predictor.predict p q in
      (* deliberately longer than the batch: only the first n entries
         are the contract *)
      let means = Array.make (n + 3) nan in
      Serving.Predictor.predict_into p ~scratch q ~means;
      for i = 0 to n - 1 do
        if not (Float.equal expect.(i) means.(i)) then
          Alcotest.failf "predict_into diverges at %d (batch %d)" i n
      done)
    (* 17 and 40 overflow the capacity-8 arena and exercise growth *)
    [ 1; 5; 8; 17; 40 ]

(* Left-to-right reference for the served mean and std, written over
   [Mat.get] with local accumulators from the artifact's stored fields,
   one query at a time: mean = g0.coeffs; h = W^-1 g0, u = G h, C v = u
   by forward then back substitution on the stored factor, and
   var = sigma0^2/hyper (g0.h - u.v) + sigma0^2. *)
let reference_predict (a : Serving.Artifact.t) xs =
  let gq = Polybasis.Basis.design_matrix (Serving.Artifact.basis a) xs in
  let n, m = Linalg.Mat.dims gq in
  let g = a.Serving.Artifact.g and l = a.Serving.Artifact.chol in
  let kc = Linalg.Mat.rows g in
  let w_inv = Array.map (fun w -> 1. /. w) a.prior.Bmf.Prior.weights in
  let sum len term =
    let acc = ref 0. in
    for j = 0 to len - 1 do
      acc := !acc +. term j
    done;
    !acc
  in
  let means = Array.make n 0. and stds = Array.make n 0. in
  for i = 0 to n - 1 do
    let g0 j = Linalg.Mat.get gq i j in
    means.(i) <- sum m (fun j -> g0 j *. a.coeffs.(j));
    let h = Array.init m (fun j -> w_inv.(j) *. g0 j) in
    let q = sum m (fun j -> g0 j *. h.(j)) in
    let u =
      Array.init kc (fun r -> sum m (fun j -> Linalg.Mat.get g r j *. h.(j)))
    in
    let y = Array.make kc 0. and v = Array.make kc 0. in
    for r = 0 to kc - 1 do
      let acc = ref u.(r) in
      for c = 0 to r - 1 do
        acc := !acc -. (Linalg.Mat.get l r c *. y.(c))
      done;
      y.(r) <- !acc /. Linalg.Mat.get l r r
    done;
    for r = kc - 1 downto 0 do
      let acc = ref y.(r) in
      for c = r + 1 to kc - 1 do
        acc := !acc -. (Linalg.Mat.get l c r *. v.(c))
      done;
      v.(r) <- !acc /. Linalg.Mat.get l r r
    done;
    let uv = sum kc (fun r -> u.(r) *. v.(r)) in
    let var = (a.sigma0_sq /. a.hyper *. (q -. uv)) +. a.sigma0_sq in
    stds.(i) <- sqrt (Float.max 0. var)
  done;
  (means, stds)

let check_bits what expect got =
  Array.iteri
    (fun i e ->
      if not (Float.equal e got.(i)) then
        Alcotest.failf "%s: entry %d is %h, expected %h" what i got.(i) e)
    expect

(* Both predictor paths against the reference, at batch sizes that end
   in a full block of four and in each short one, through a capacity-4
   scratch that has to grow. *)
let test_predict_with_std_into_matches () =
  let s = make_synth ~k:24 ~r:10 () in
  let a = artifact_of s in
  let p = Serving.Predictor.of_artifact a in
  let scratch = Serving.Predictor.Scratch.create ~capacity:4 p in
  List.iter
    (fun n ->
      let q = queries s n in
      let rm, rs = reference_predict a q in
      let em, es = Serving.Predictor.predict_with_std p q in
      let means = Array.make n nan and stds = Array.make n nan in
      Serving.Predictor.predict_with_std_into p ~scratch q ~means ~stds;
      check_bits "predict_with_std means" rm em;
      check_bits "predict_with_std stds" rs es;
      check_bits "predict_with_std_into means" rm means;
      check_bits "predict_with_std_into stds" rs stds)
    [ 1; 2; 3; 4; 11; 32 ]

(* A query's std must not depend on its neighbours: the kernel takes
   rows four at a time and a short last block repeats its last row, so
   the query served alone is compared with the same query at every
   position in a batch of 0-9 other rows. *)
let std_position_property =
  let prng = Stats.Rng.create 4242 in
  let s = make_synth ~rng:prng ~k:24 ~r:10 () in
  let p = Serving.Predictor.of_artifact (artifact_of s) in
  let r = Polybasis.Basis.dim s.basis in
  let scratch = Serving.Predictor.Scratch.create ~capacity:1 p in
  let serve xs =
    let n = Linalg.Mat.rows xs in
    let means = Array.make n nan and stds = Array.make n nan in
    Serving.Predictor.predict_with_std_into p ~scratch xs ~means ~stds;
    (means, stds)
  in
  QCheck.Test.make ~name:"std bits independent of batch position" ~count:200
    QCheck.(
      make
        Gen.(
          pair (int_range 0 9) (int_range 0 9) >>= fun (others, pos) ->
          pair
            (return (others, pos mod (others + 1)))
            (array_size (return ((others + 1) * r)) (float_range (-3.) 3.))))
    (fun ((others, pos), data) ->
      let row i = Array.sub data (i * r) r in
      let alone = Linalg.Mat.of_rows [ row 0 ] in
      (* the query (row 0 of [data]) lands at [pos]; rows 1.. fill the
         other places in order *)
      let batch =
        Linalg.Mat.of_rows
          (List.init (others + 1) (fun i ->
               if i = pos then row 0 else if i < pos then row (i + 1)
               else row i))
      in
      let am, astd = serve alone in
      let bm, bstd = serve batch in
      let pm, pstd = Serving.Predictor.predict_with_std p batch in
      Float.equal am.(0) bm.(pos)
      && Float.equal astd.(0) bstd.(pos)
      && Float.equal am.(0) pm.(pos)
      && Float.equal astd.(0) pstd.(pos))

(* The pool path at one lane and at eight: at n = 33 and 50 the lane
   chunks (grain 16) start at rows 17 and 34, off a multiple of four.
   Both must equal the reference. *)
let test_predict_with_std_lanes () =
  let lrng = Stats.Rng.create 5150 in
  let s = make_synth ~rng:lrng ~k:24 ~r:10 () in
  let a = artifact_of s in
  let p = Serving.Predictor.of_artifact a in
  let at jobs q =
    Parallel.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.set_default_jobs 0)
      (fun () -> Serving.Predictor.predict_with_std p q)
  in
  List.iter
    (fun n ->
      let q = queries ~rng:lrng s n in
      let rm, rs = reference_predict a q in
      let m1, s1 = at 1 q and m8, s8 = at 8 q in
      let tag = Printf.sprintf "n=%d" n in
      check_bits (tag ^ " -j 1 means") rm m1;
      check_bits (tag ^ " -j 1 stds") rs s1;
      check_bits (tag ^ " -j 8 means") rm m8;
      check_bits (tag ^ " -j 8 stds") rs s8)
    [ 33; 50 ]

let test_scratch_misuse_rejected () =
  let s = make_synth ~k:10 ~r:6 () in
  let a = artifact_of s in
  let p = Serving.Predictor.of_artifact a in
  let other = Serving.Predictor.of_artifact a in
  let scratch = Serving.Predictor.Scratch.create p in
  let q = queries s 4 in
  check_bool "foreign scratch refused" true
    (try
       Serving.Predictor.predict_into other ~scratch q
         ~means:(Array.make 4 0.);
       false
     with Invalid_argument _ -> true);
  check_bool "short means buffer refused" true
    (try
       Serving.Predictor.predict_into p ~scratch q ~means:(Array.make 3 0.);
       false
     with Invalid_argument _ -> true);
  check_bool "short stds buffer refused" true
    (try
       Serving.Predictor.predict_with_std_into p ~scratch q
         ~means:(Array.make 4 0.) ~stds:(Array.make 3 0.);
       false
     with Invalid_argument _ -> true)

(* The allocation-regression gate: after warm-up, a steady-state
   predict-with-std batch must run without any per-query minor-heap
   allocation. The budget is a small per-CALL constant (closure shells
   on the observability bracket), far below one boxed float per query —
   so any reintroduced per-query or per-row allocation trips it. *)
let test_predict_allocation_gate () =
  let s = make_synth ~k:30 ~r:12 () in
  let p = Serving.Predictor.of_artifact (artifact_of s) in
  let scratch = Serving.Predictor.Scratch.create ~capacity:64 p in
  let q64 = queries s 64 in
  (* 64 rows are whole blocks of four; 1 and 7 end in a padded block *)
  List.iter
    (fun batch ->
      let q = Linalg.Mat.of_rows (List.init batch (Linalg.Mat.row q64)) in
      let means = Array.make batch 0. and stds = Array.make batch 0. in
      (* warm-up: fault in any lazy state *)
      for _ = 1 to 3 do
        Serving.Predictor.predict_with_std_into p ~scratch q ~means ~stds
      done;
      let calls = 50 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        Serving.Predictor.predict_with_std_into p ~scratch q ~means ~stds
      done;
      let words = Gc.minor_words () -. before in
      let per_call = words /. float_of_int calls in
      if per_call > 64. then
        Alcotest.failf
          "predict allocates %.1f minor words per %d-point call (budget 64)"
          per_call batch;
      (* and the means-only path is at least as tight *)
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        Serving.Predictor.predict_into p ~scratch q ~means
      done;
      let words = Gc.minor_words () -. before in
      let per_call = words /. float_of_int calls in
      if per_call > 64. then
        Alcotest.failf
          "predict_into allocates %.1f minor words per %d-point call" per_call
          batch)
    [ 64; 1; 7 ]

(* The binary codec's share of the gate: a save and a load of one
   basis cost O(1) minor words per call, not per float. The floats move
   straight between the bytes and the Bigarray storage, and buffers this
   large go to the major heap. Only the response vector [f] (K words, on
   the minor heap below 256 floats) grows with K. *)
let test_artifact_codec_allocation_gate () =
  let s = make_synth ~rng:(Stats.Rng.create 6060) ~k:200 ~r:25 () in
  let artifact k =
    Serving.Artifact.of_fit ~meta ~basis:s.basis ~prior:s.prior
      ~hyper:s.hyper
      ~g:(Linalg.Mat.copy (Linalg.Mat.view_rows s.g k))
      ~f:(Array.sub s.f 0 k) ()
  in
  let words_per_call f =
    for _ = 1 to 3 do
      ignore (Sys.opaque_identity (f ()))
    done;
    let calls = 20 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let save k =
    let a = artifact k in
    words_per_call (fun () ->
        Serving.Artifact.to_string Serving.Artifact.Binary a)
  in
  let load k =
    let bytes = Serving.Artifact.to_string Serving.Artifact.Binary (artifact k) in
    words_per_call (fun () -> Serving.Artifact.of_string bytes)
  in
  let save50 = save 50 and save200 = save 200 in
  if Float.abs (save200 -. save50) > 64. then
    Alcotest.failf
      "Artifact.to_string: %.0f minor words at K=50, %.0f at K=200 \
       (budget: the same count, +/- 64)"
      save50 save200;
  let load50 = load 50 and load200 = load 200 in
  let per_sample = (load200 -. load50) /. 150. in
  if per_sample > 2. then
    Alcotest.failf
      "Artifact.of_string: %.0f minor words at K=50, %.0f at K=200 \
       (%.1f per added sample, budget 2)"
      load50 load200 per_sample

(* ------------------------------------------------------------------ *)
(* Golden fingerprints, captured from the seed float-array kernels
   before the Bigarray storage port. These pin fit coefficients, the
   serialized store bytes, a 64-query predict, and a 4-batch
   incremental-update trajectory to the exact bit patterns the seed
   produced: any change to summation order or storage layout that
   perturbs a single bit anywhere in the fit/predict/update pipeline
   fails here.                                                          *)

let golden_fp = Serving.Artifact.fingerprint

let test_golden_fingerprints () =
  let rng = Stats.Rng.create 987654321 in
  let r = 6 in
  let basis = Polybasis.Basis.total_degree ~r ~d:2 in
  let m = Polybasis.Basis.size basis in
  let truth = Array.init m (fun i -> cos (float_of_int (i + 1))) in
  let early =
    Array.map
      (fun c -> Some (c *. (1. +. (0.2 *. Stats.Rng.gaussian rng))))
      truth
  in
  let k = 48 in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let f =
    Array.init k (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) truth
        +. (0.02 *. Stats.Rng.gaussian rng))
  in
  let prior = Bmf.Prior.nonzero_mean early in
  let hyper, _ = Bmf.Hyper.select ~rng ~g ~f ~prior () in
  let gmeta =
    {
      Serving.Artifact.circuit = "golden";
      metric = "fp";
      scale = "quick";
      seed = 13;
    }
  in
  let a =
    Serving.Artifact.of_fit ~meta:gmeta ~basis ~prior ~hyper ~g ~f ()
  in
  check_string "fit coefficients" "715c141c3df234c1"
    (golden_fp a.Serving.Artifact.coeffs);
  check_string "binary store bytes" "63b4e116cb957761"
    (Serving.Artifact.checksum_hex
       (Serving.Artifact.to_string Serving.Artifact.Binary a));
  let p = Serving.Predictor.of_artifact a in
  let q =
    Linalg.Mat.of_rows (List.init 64 (fun _ -> Stats.Rng.gaussian_vec rng r))
  in
  check_string "64-query predict" "4b2f341a8c3a237f"
    (golden_fp (Serving.Predictor.predict p q));
  let means, stds = Serving.Predictor.predict_with_std p q in
  check_string "predict_with_std means" "4b2f341a8c3a237f" (golden_fp means);
  check_string "predict_with_std stds" "a472e06c71b78662" (golden_fp stds);
  (* the allocation-free twins must land on the same goldens *)
  let scratch = Serving.Predictor.Scratch.create ~capacity:64 p in
  let means' = Array.make 64 0. and stds' = Array.make 64 0. in
  Serving.Predictor.predict_into p ~scratch q ~means:means';
  check_string "predict_into golden" "4b2f341a8c3a237f" (golden_fp means');
  Serving.Predictor.predict_with_std_into p ~scratch q ~means:means'
    ~stds:stds';
  check_string "predict_with_std_into means golden" "4b2f341a8c3a237f"
    (golden_fp means');
  check_string "predict_with_std_into stds golden" "a472e06c71b78662"
    (golden_fp stds');
  (* the first 1, 3 and 7 queries: batches that end in a short block of
     the four-row variance kernel (captured from the per-query kernel
     that came before it) *)
  List.iter
    (fun (n, fp_means, fp_stds) ->
      let qn = Linalg.Mat.of_rows (List.init n (Linalg.Mat.row q)) in
      let means, stds = Serving.Predictor.predict_with_std p qn in
      check_string (Printf.sprintf "first %d queries: means" n) fp_means
        (golden_fp means);
      check_string (Printf.sprintf "first %d queries: stds" n) fp_stds
        (golden_fp stds);
      Serving.Predictor.predict_with_std_into p ~scratch qn ~means:means'
        ~stds:stds';
      check_string
        (Printf.sprintf "first %d queries: predict_with_std_into stds" n)
        fp_stds
        (golden_fp (Array.sub stds' 0 n)))
    [
      (1, "0256d2ecaf59ff08", "b1c78b1feb83a4b2");
      (3, "e65c0185811b2025", "123971633adbfdfb");
      (7, "4757f381560e6b57", "c7078c44426b0599");
    ];
  (* incremental trajectory: 4 batches of 8, then re-serialization *)
  let inc = Serving.Incremental.of_artifact a in
  let expected_steps =
    [|
      "c89d3ee9db84926c";
      "223148002187a39c";
      "348daa59116fd2fb";
      "1152e9e731be3594";
    |]
  in
  for b = 0 to 3 do
    let xs = Stats.Sampling.monte_carlo rng ~k:8 ~r in
    let gq = Polybasis.Basis.design_matrix basis xs in
    let fb =
      Array.init 8 (fun i ->
          Linalg.Vec.dot (Linalg.Mat.row gq i) truth
          +. (0.02 *. Stats.Rng.gaussian rng))
    in
    Serving.Incremental.add_batch inc ~xs ~f:fb;
    check_string
      (Printf.sprintf "incremental step %d coefficients" b)
      expected_steps.(b)
      (golden_fp (Serving.Incremental.coeffs inc))
  done;
  check_string "incremental store bytes" "9e953861794d2b2b"
    (Serving.Artifact.checksum_hex
       (Serving.Artifact.to_string Serving.Artifact.Binary
          (Serving.Incremental.to_artifact inc)))

(* Byte golden for one journal entry: a fixed entry, captured before the
   codec helpers were shared, so the on-disk WAL framing cannot drift. *)
let test_journal_entry_golden () =
  let entry =
    {
      Serving.Journal.meta =
        {
          Serving.Artifact.circuit = "golden";
          metric = "wal";
          scale = "quick";
          seed = 13;
        };
      base_rev = 3;
      xs =
        Linalg.Mat.init 2 3 (fun i j ->
            (float_of_int ((i * 3) + j) /. 7.) -. 0.5);
      f = [| 1.5; -0. |];
    }
  in
  check_string "journal entry bytes" "42ebe1e4521910a5"
    (Serving.Artifact.checksum_hex (Serving.Journal.encode_entry entry))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serving"
    [
      ( "artifact",
        [
          Alcotest.test_case "of_fit = solver" `Quick
            test_of_fit_matches_solver;
          Alcotest.test_case "fnv64 known answers, O(1) words" `Quick
            test_fnv64;
          Alcotest.test_case "json round-trip" `Quick test_roundtrip_json;
          Alcotest.test_case "binary round-trip" `Quick test_roundtrip_binary;
          Alcotest.test_case "binary corruption" `Quick
            test_binary_corruption_detected;
          Alcotest.test_case "json corruption" `Quick
            test_json_corruption_detected;
        ] );
      ( "store",
        [
          Alcotest.test_case "save/load/list" `Quick test_store_save_load_list;
          Alcotest.test_case "atomic save" `Quick test_store_atomic_save;
          Alcotest.test_case "tamper detection" `Quick
            test_store_detects_tampering;
          Alcotest.test_case "sanitize collisions" `Quick
            test_store_collision_distinct_files;
          Alcotest.test_case "legacy names load" `Quick
            test_store_loads_legacy_names;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick
            test_journal_tolerates_torn_tail;
          Alcotest.test_case "garbage" `Quick test_journal_rejects_garbage;
          Alcotest.test_case "fresh nested root" `Quick
            test_journal_fresh_nested_root;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "blocked design matrix" `Quick
            test_blocked_design_matrix_matches;
          Alcotest.test_case "means" `Quick test_predictor_mean_matches_basis;
          Alcotest.test_case "variance = posterior" `Quick
            test_predictor_variance_matches_posterior;
          Alcotest.test_case "rejects dim mismatch" `Quick
            test_predictor_rejects_dim_mismatch;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "matches cold refit" `Quick
            test_incremental_matches_cold_refit;
          Alcotest.test_case "single points" `Quick
            test_incremental_single_points;
          Alcotest.test_case "store round-trip" `Quick
            test_incremental_to_artifact_roundtrip;
          Alcotest.test_case "rejects bad rows" `Quick
            test_incremental_rejects_bad_rows;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "known residual stream" `Quick
            test_calibration_known_residuals;
          Alcotest.test_case "rolling window wrap" `Quick
            test_calibration_window_wrap;
          Alcotest.test_case "degenerate sigmas and gating" `Quick
            test_calibration_degenerate_and_gating;
        ] );
      ( "into-kernels",
        [
          Alcotest.test_case "predict_into = predict" `Quick
            test_predict_into_matches;
          Alcotest.test_case "predict_with_std_into = predict_with_std"
            `Quick test_predict_with_std_into_matches;
          Alcotest.test_case "scratch misuse rejected" `Quick
            test_scratch_misuse_rejected;
          Alcotest.test_case "predict_with_std at -j 1 = -j 8" `Quick
            test_predict_with_std_lanes;
          QCheck_alcotest.to_alcotest std_position_property;
        ] );
      ( "alloc-gate",
        [
          Alcotest.test_case "steady-state predict is allocation-free"
            `Quick test_predict_allocation_gate;
          Alcotest.test_case "artifact save and load are O(1) words" `Quick
            test_artifact_codec_allocation_gate;
        ] );
      ( "golden",
        [
          Alcotest.test_case "seed fingerprints" `Quick
            test_golden_fingerprints;
          Alcotest.test_case "journal entry bytes" `Quick
            test_journal_entry_golden;
        ] );
      (* last, so its draws from the shared rng shift no other case *)
      ( "counters",
        [
          Alcotest.test_case "predictor counts once per call" `Quick
            test_predictor_counters_once_per_call;
        ] );
    ]
