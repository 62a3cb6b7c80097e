(* Tests for lib/ensemble: evidence scoring closed forms, softmax
   weight degeneracies (single member, ties, -inf, Occam pruning),
   state codec round-trips and corruption refusal, the decomposed
   combine fold, the crash-safe .bmfe store, and the manager's
   two-phase score/commit canary flow. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let checkf msg expected got =
  Alcotest.(check (float 1e-12)) msg expected got

let rng = Stats.Rng.create 20160905

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmf-ensemble-test-%d" (Unix.getpid ()))
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

let meta_a =
  { Serving.Artifact.circuit = "amp"; metric = "gain"; scale = "quick"; seed = 1 }

let meta_b = { meta_a with Serving.Artifact.seed = 2 }

let meta_c = { meta_a with Serving.Artifact.seed = 3 }

(* ------------------------------------------------------------------ *)
(* Evidence                                                            *)

let test_log_density_closed_form () =
  (* ln N(x; mu, sigma^2) = -ln(sigma*sqrt(2*pi)) - (x-mu)^2/(2 sigma^2) *)
  List.iter
    (fun (mean, std, x) ->
      let expected =
        -.log (std *. sqrt (2. *. Float.pi))
        -. (((x -. mean) ** 2.) /. (2. *. std *. std))
      in
      checkf
        (Printf.sprintf "log N(%g; %g, %g^2)" x mean std)
        expected
        (Ensemble.Evidence.log_density ~mean ~std x))
    [ (0., 1., 0.); (0., 1., 2.5); (3., 0.25, 2.9); (-7., 10., 40.) ]

let test_log_density_never_nan () =
  List.iter
    (fun (mean, std, x) ->
      let d = Ensemble.Evidence.log_density ~mean ~std x in
      check_bool "degenerate density is -inf, not NaN" true
        (d = Float.neg_infinity))
    [
      (0., 0., 1.);
      (0., -1., 1.);
      (Float.nan, 1., 0.);
      (0., Float.nan, 0.);
      (0., 1., Float.nan);
      (Float.infinity, 1., 0.);
      (0., 1., Float.infinity);
    ]

let test_score_sums_in_order () =
  let means = [| 0.; 1.; -2. |] in
  let stds = [| 1.; 0.5; 2. |] in
  let f = [| 0.1; 0.9; -1.5 |] in
  let expected =
    Ensemble.Evidence.log_density ~mean:means.(0) ~std:stds.(0) f.(0)
    +. Ensemble.Evidence.log_density ~mean:means.(1) ~std:stds.(1) f.(1)
    +. Ensemble.Evidence.log_density ~mean:means.(2) ~std:stds.(2) f.(2)
  in
  check_bool "score equals the left-to-right fold bit-for-bit" true
    (Float.equal expected (Ensemble.Evidence.score ~means ~stds f));
  match Ensemble.Evidence.score ~means ~stds [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

(* ------------------------------------------------------------------ *)
(* Weights: the degenerate cases that must never produce NaN           *)

let sum = Array.fold_left ( +. ) 0.

let test_weights_single_member () =
  let w = Ensemble.Weights.compute [| -123.4 |] in
  check_int "one member" 1 (Array.length w);
  checkf "sole member carries all weight" 1. w.(0)

let test_weights_all_equal () =
  List.iter
    (fun s ->
      let w = Ensemble.Weights.compute [| s; s; s; s |] in
      Array.iter (fun wi -> checkf "tie splits uniformly" 0.25 wi) w;
      checkf "sums to 1" 1. (sum w))
    [ 0.; -1e6; 42.; -1e300 ]

let test_weights_neg_infinity_never_nan () =
  let w = Ensemble.Weights.compute [| 0.; Float.neg_infinity; -1. |] in
  Array.iter
    (fun wi -> check_bool "no NaN weight" false (Float.is_nan wi))
    w;
  checkf "-inf member gets exactly 0" 0. w.(1);
  checkf "sums to 1" 1. (sum w);
  (* every member at -inf: uniform, still no NaN *)
  let all_dead =
    Ensemble.Weights.compute
      [| Float.neg_infinity; Float.neg_infinity; Float.neg_infinity |]
  in
  Array.iter
    (fun wi ->
      check_bool "no NaN weight" false (Float.is_nan wi);
      checkf "uniform fallback" (1. /. 3.) wi)
    all_dead;
  checkf "sums to 1" 1. (sum all_dead)

let test_weights_sum_within_1e12 () =
  for _ = 1 to 50 do
    let n = 1 + Stats.Rng.int rng 8 in
    let scores =
      Array.init n (fun _ -> 200. *. (Stats.Rng.float rng -. 0.5))
    in
    let w = Ensemble.Weights.compute scores in
    check_bool "sum within 1e-12 of 1" true (Float.abs (sum w -. 1.) <= 1e-12);
    Array.iter
      (fun wi -> check_bool "weight in [0,1]" true (wi >= 0. && wi <= 1.))
      w
  done

let test_weights_occam_pruning_deterministic () =
  let scores = [| 0.; -1.; -30. |] in
  let w = Ensemble.Weights.compute ~occam:1e-6 scores in
  checkf "member far below the window is pruned to exactly 0" 0. w.(2);
  check_bool "survivors keep positive weight" true (w.(0) > 0. && w.(1) > 0.);
  checkf "renormalized sum" 1. (sum w);
  (* pure function: byte-identical on repeat *)
  let w' = Ensemble.Weights.compute ~occam:1e-6 scores in
  check_bool "deterministic" true (Array.for_all2 Float.equal w w');
  (* occam = 0 disables the window *)
  let open_w = Ensemble.Weights.compute ~occam:0. scores in
  check_bool "window off keeps the tail member" true (open_w.(2) > 0.);
  (* the best member survives any window *)
  let tight = Ensemble.Weights.compute ~occam:1. scores in
  checkf "ratio-1 window leaves only the best" 1. tight.(0)

(* ------------------------------------------------------------------ *)
(* State: membership, canary prior, evidence reset, codec              *)

let state_ab () =
  let s = Ensemble.State.create "pair" in
  let s =
    match Ensemble.State.add s meta_a with
    | Ok s -> s
    | Error e -> Alcotest.failf "add a: %s" e
  in
  match Ensemble.State.add s meta_b with
  | Ok s -> s
  | Error e -> Alcotest.failf "add b: %s" e

let test_state_add_and_canary_prior () =
  let s = state_ab () in
  check_int "two members" 2 (Array.length s.Ensemble.State.members);
  checkf "founding member at log prior 0" 0.
    s.Ensemble.State.members.(0).Ensemble.State.log_prior;
  checkf "canary at ln 1e-6" (log 1e-6)
    s.Ensemble.State.members.(1).Ensemble.State.log_prior;
  check_bool "canary constant matches" true
    (Float.equal Ensemble.State.canary_log_prior (log 1e-6));
  (match Ensemble.State.add s meta_a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate member accepted");
  (* fresh state: founding member dominates, canary is ~1e-6 *)
  let w = Ensemble.State.weights s in
  check_bool "canary starts near zero" true (w.(1) < 2e-6);
  check_bool "founder starts near one" true (w.(0) > 0.999)

let test_state_record_and_reset () =
  let s = state_ab () in
  let s = Ensemble.State.record s [| (4.5, 10); (-2.5, 10) |] in
  checkf "evidence accumulated" 4.5
    s.Ensemble.State.members.(0).Ensemble.State.log_ev;
  check_int "points counted" 10
    s.Ensemble.State.members.(0).Ensemble.State.count;
  let s = Ensemble.State.record s [| (0., 0); (1.5, 5) |] in
  checkf "unavailable member carries (0, 0)" 4.5
    s.Ensemble.State.members.(0).Ensemble.State.log_ev;
  check_int "its count is unchanged" 10
    s.Ensemble.State.members.(0).Ensemble.State.count;
  checkf "other member advanced" (-1.)
    s.Ensemble.State.members.(1).Ensemble.State.log_ev;
  check_int "its points" 15 s.Ensemble.State.members.(1).Ensemble.State.count;
  (match Ensemble.State.record s [| (1., 1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted");
  (* membership change resets every member's evidence *)
  match Ensemble.State.add s meta_c with
  | Error e -> Alcotest.failf "add c: %s" e
  | Ok s ->
      Array.iter
        (fun (m : Ensemble.State.member) ->
          checkf "evidence reset on add" 0. m.log_ev;
          check_int "count reset on add" 0 m.count)
        s.Ensemble.State.members

let test_state_codec_roundtrip_and_corruption () =
  let s =
    Ensemble.State.record (state_ab ()) [| (12.25, 40); (-3.125, 40) |]
  in
  let bytes = Ensemble.State.to_binary_string s in
  check_string "magic leads the payload" "BMFENS01" (String.sub bytes 0 8);
  (match Ensemble.State.of_binary_string bytes with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok s' ->
      check_bool "round-trip is exact" true (s' = s);
      check_bool "re-encode is byte-identical" true
        (String.equal bytes (Ensemble.State.to_binary_string s')));
  (* one-byte corruption anywhere must be refused, not misread *)
  List.iter
    (fun at ->
      let b = Bytes.of_string bytes in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x40));
      match Ensemble.State.of_binary_string (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "corruption at byte %d accepted" at)
    [ 0; 9; String.length bytes / 2; String.length bytes - 1 ];
  match Ensemble.State.of_binary_string "BMFENS01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload accepted"

(* Byte golden for one [.bmfe]: a fixed state, captured before the codec
   helpers were shared, so the file format cannot drift. *)
let test_state_bytes_golden () =
  let s =
    Ensemble.State.record (state_ab ()) [| (12.25, 40); (-3.125, 40) |]
  in
  check_string ".bmfe bytes" "1e65b74652d57516"
    (Serving.Artifact.checksum_hex (Ensemble.State.to_binary_string s))

(* A [.bmfe] whose checksum matches but whose name length is max_int:
   the bound [at + n] wraps around, so it must be checked as
   [n > len - at]. [Manager.load_all] runs at daemon start and expects an
   [Error] for every bad file, never an exception. *)
let test_state_forged_length_refused () =
  let payload = Bytes.create 16 in
  Bytes.set_int64_le payload 0 (Int64.of_int max_int);
  Bytes.set_int64_le payload 8 0L;
  let payload = Bytes.to_string payload in
  let sum = Int64.of_string ("0x" ^ Serving.Artifact.checksum_hex payload) in
  let sealed = Bytes.create 16 in
  Bytes.blit_string "BMFENS01" 0 sealed 0 8;
  Bytes.set_int64_le sealed 8 sum;
  match Ensemble.State.of_binary_string (Bytes.to_string sealed ^ payload) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged name length accepted"
  | exception e ->
      Alcotest.failf "forged name length raised %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Predictor.combine: the normative decomposition fold                 *)

let test_combine_decomposition () =
  let weights = [| 0.75; 0.25 |] in
  let means = [| [| 1.; 10. |]; [| 3.; -10. |] |] in
  let stds = [| [| 0.1; 1. |]; [| 0.3; 2. |] |] in
  let mean, within, between = Ensemble.Predictor.combine ~weights ~means ~stds in
  (* hand-computed per point *)
  for i = 0 to 1 do
    let mu = (0.75 *. means.(0).(i)) +. (0.25 *. means.(1).(i)) in
    let w_var =
      (0.75 *. stds.(0).(i) *. stds.(0).(i))
      +. (0.25 *. stds.(1).(i) *. stds.(1).(i))
    in
    let b_var =
      (0.75 *. ((means.(0).(i) -. mu) ** 2.))
      +. (0.25 *. ((means.(1).(i) -. mu) ** 2.))
    in
    checkf (Printf.sprintf "mean %d" i) mu mean.(i);
    checkf (Printf.sprintf "within %d" i) w_var within.(i);
    checkf (Printf.sprintf "between %d" i) b_var between.(i)
  done

let test_combine_skips_zero_weight () =
  (* the dead member's arrays are never read: empty arrays prove it *)
  let mean, within, between =
    Ensemble.Predictor.combine ~weights:[| 1.; 0. |]
      ~means:[| [| 2.; 4. |]; [||] |]
      ~stds:[| [| 0.5; 0.5 |]; [||] |]
  in
  checkf "mean is the sole active member's" 2. mean.(0);
  checkf "within is its variance" 0.25 within.(0);
  checkf "between collapses to 0" 0. between.(0);
  check_int "per-point outputs" 2 (Array.length between);
  (match
     Ensemble.Predictor.combine ~weights:[| 0.; 0. |]
       ~means:[| [||]; [||] |] ~stds:[| [||]; [||] |]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no-active-member combine accepted");
  match
    Ensemble.Predictor.combine ~weights:[| 1. |] ~means:[| [| 1. |]; [||] |]
      ~stds:[| [| 1. |] |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

(* ------------------------------------------------------------------ *)
(* Store: .bmfe persistence                                            *)

let test_store_save_load_list () =
  with_temp_root @@ fun root ->
  let s = Ensemble.State.record (state_ab ()) [| (1.5, 3); (0.5, 3) |] in
  let file = Ensemble.Store.save ~root s in
  check_bool "file carries the .bmfe extension" true
    (Filename.check_suffix file Ensemble.Store.extension);
  (match Ensemble.Store.load ~root "pair" with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok s' -> check_bool "load round-trips the state" true (s' = s));
  check_bool "find locates it" true (Ensemble.Store.find ~root "pair" <> None);
  (match Ensemble.Store.list ~root with
  | [ (f, Ok s') ] ->
      check_string "listed file" file f;
      check_bool "listed state" true (s' = s)
  | l -> Alcotest.failf "expected one clean entry, got %d" (List.length l));
  (* .bmfe files are invisible to the artifact store's listing *)
  check_int "artifact listing ignores ensembles" 0
    (List.length (Serving.Store.list ~root));
  (* the not-found error names the directory and the expected file *)
  match Ensemble.Store.load ~root "missing" with
  | Ok _ -> Alcotest.fail "missing ensemble loaded"
  | Error e ->
      check_bool "error names the root" true
        (let re = Str.regexp_string root in
         try
           ignore (Str.search_forward re e 0);
           true
         with Not_found -> false)

let test_store_distinct_names_never_collide () =
  (* sanitization maps both to the same safe stem; the digest must keep
     their files apart *)
  let f1 = Ensemble.Store.filename "a/b" in
  let f2 = Ensemble.Store.filename "a_b" in
  check_bool "sanitized homographs get distinct files" true (f1 <> f2);
  with_temp_root @@ fun root ->
  ignore (Ensemble.Store.save ~root (Ensemble.State.create "a/b"));
  ignore (Ensemble.Store.save ~root (Ensemble.State.create "a_b"));
  check_int "both persisted" 2 (List.length (Ensemble.Store.list ~root))

let test_store_corrupt_listed_not_loaded () =
  with_temp_root @@ fun root ->
  let file = Ensemble.Store.save ~root (state_ab ()) in
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  close_in ic;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 file in
  seek_out oc (len / 2);
  output_char oc '\xff';
  close_out oc;
  (match Ensemble.Store.load ~root "pair" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt ensemble loaded");
  match Ensemble.Store.list ~root with
  | [ (_, Error _) ] -> ()
  | _ -> Alcotest.fail "corrupt entry not surfaced by list"

(* ------------------------------------------------------------------ *)
(* Manager: published view and the two-phase canary flow               *)

(* A tiny fitted artifact pair over one shared basis: [good] is fit on
   the truth, [bad] on a systematically wrong response, so scoring real
   data must favor [good]. *)
let synth_artifact ~meta ~truth ~rng ~k basis =
  let r = Polybasis.Basis.dim basis in
  let xs = Stats.Sampling.monte_carlo rng ~k ~r in
  let g = Polybasis.Basis.design_matrix basis xs in
  let f =
    Array.init k (fun i ->
        Linalg.Vec.dot (Linalg.Mat.row g i) truth
        +. (0.01 *. Stats.Rng.gaussian rng))
  in
  let prior = Bmf.Prior.nonzero_mean (Array.map (fun c -> Some c) truth) in
  let hyper, _ = Bmf.Hyper.select ~rng ~g ~f ~prior () in
  Serving.Artifact.of_fit ~meta ~basis ~prior ~hyper ~g ~f ()

let test_manager_canary_overtakes () =
  with_temp_root @@ fun root ->
  let basis = Polybasis.Basis.linear 6 in
  let m = Polybasis.Basis.size basis in
  let truth = Array.init m (fun i -> 1. /. float_of_int (i + 1)) in
  let wrong = Array.map (fun c -> c +. 3.) truth in
  let incumbent = synth_artifact ~meta:meta_a ~truth:wrong ~rng ~k:30 basis in
  let canary = synth_artifact ~meta:meta_b ~truth ~rng ~k:30 basis in
  ignore (Serving.Store.save ~root incumbent);
  ignore (Serving.Store.save ~root canary);
  let s = Ensemble.State.create "flip" in
  let s = Result.get_ok (Ensemble.State.add s meta_a) in
  let s = Result.get_ok (Ensemble.State.add s meta_b) in
  ignore (Ensemble.Store.save ~root s);
  let mgr = Ensemble.Manager.create ~root in
  check_int "clean load" 0 (List.length (Ensemble.Manager.load_all mgr));
  let s = Option.get (Ensemble.Manager.find mgr "flip") in
  let w0 = Ensemble.State.weights s in
  check_bool "canary starts near zero" true (w0.(1) < 2e-6);
  (* containing finds the ensemble from either member's key *)
  check_int "containing (incumbent)" 1
    (List.length (Ensemble.Manager.containing mgr meta_a));
  check_int "containing (canary)" 1
    (List.length (Ensemble.Manager.containing mgr meta_b));
  check_int "containing (stranger)" 0
    (List.length (Ensemble.Manager.containing mgr meta_c));
  let predictor_of meta =
    match Serving.Store.load ~root meta with
    | Ok a -> Some (Serving.Predictor.of_artifact a)
    | Error _ -> None
  in
  (* feed batches drawn from the truth: the canary's evidence grows,
     the incumbent's shrinks, and weight provably crosses over *)
  let r = Polybasis.Basis.dim basis in
  let rounds = 12 in
  let final =
    List.fold_left
      (fun s _ ->
        let xs = Stats.Sampling.monte_carlo rng ~k:8 ~r in
        let g = Polybasis.Basis.design_matrix basis xs in
        let f =
          Array.init 8 (fun i ->
              Linalg.Vec.dot (Linalg.Mat.row g i) truth
              +. (0.01 *. Stats.Rng.gaussian rng))
        in
        let scored = Ensemble.Manager.score ~predictor_of s ~xs ~f in
        Ensemble.Manager.commit mgr scored;
        scored)
      s
      (List.init rounds (fun i -> i))
  in
  check_int "every point scored" (rounds * 8)
    final.Ensemble.State.members.(1).Ensemble.State.count;
  let w = Ensemble.State.weights final in
  check_bool
    (Printf.sprintf "canary overtook the incumbent (w = %.6f)" w.(1))
    true (w.(1) > 0.9);
  (* commit published and persisted the advanced state *)
  let published = Option.get (Ensemble.Manager.find mgr "flip") in
  check_bool "published view advanced" true (published = final);
  (match Ensemble.Store.load ~root "flip" with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok disk -> check_bool "persisted state advanced" true (disk = final));
  (* a fresh manager (the post-crash daemon) sees the same weights *)
  let mgr2 = Ensemble.Manager.create ~root in
  ignore (Ensemble.Manager.load_all mgr2);
  let recovered = Option.get (Ensemble.Manager.find mgr2 "flip") in
  check_bool "weight state survives reload" true (recovered = final)

let test_manager_score_unavailable_member_is_neutral () =
  with_temp_root @@ fun root ->
  let s = state_ab () in
  ignore (Ensemble.Store.save ~root s);
  let mgr = Ensemble.Manager.create ~root in
  ignore (Ensemble.Manager.load_all mgr);
  let s = Option.get (Ensemble.Manager.find mgr "pair") in
  let xs = Linalg.Mat.of_rows [ [| 0.5 |]; [| -0.5 |] ] in
  let scored =
    Ensemble.Manager.score ~predictor_of:(fun _ -> None) s ~xs ~f:[| 1.; 2. |]
  in
  Array.iter
    (fun (m : Ensemble.State.member) ->
      checkf "no predictor, no evidence" 0. m.log_ev;
      check_int "no predictor, no points" 0 m.count)
    scored.Ensemble.State.members

let test_manager_reload_picks_up_and_drops () =
  with_temp_root @@ fun root ->
  let mgr = Ensemble.Manager.create ~root in
  ignore (Ensemble.Manager.load_all mgr);
  check_int "empty root, empty view" 0
    (List.length (Ensemble.Manager.list mgr));
  (* an out-of-band create (the CLI against a live daemon's store) *)
  ignore (Ensemble.Store.save ~root (state_ab ()));
  (match Ensemble.Manager.reload mgr "pair" with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok s -> check_string "picked up" "pair" s.Ensemble.State.name);
  check_int "published" 1 (List.length (Ensemble.Manager.list mgr));
  (* a vanished file drops it from the view *)
  Sys.remove (Option.get (Ensemble.Store.find ~root "pair"));
  (match Ensemble.Manager.reload mgr "pair" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vanished ensemble reloaded");
  check_int "dropped from the view" 0
    (List.length (Ensemble.Manager.list mgr))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ensemble"
    [
      ( "evidence",
        [
          Alcotest.test_case "gaussian closed form" `Quick
            test_log_density_closed_form;
          Alcotest.test_case "degenerate inputs never NaN" `Quick
            test_log_density_never_nan;
          Alcotest.test_case "batch score sums in order" `Quick
            test_score_sums_in_order;
        ] );
      ( "weights",
        [
          Alcotest.test_case "single member" `Quick test_weights_single_member;
          Alcotest.test_case "all-equal evidence" `Quick
            test_weights_all_equal;
          Alcotest.test_case "-inf evidence never NaN" `Quick
            test_weights_neg_infinity_never_nan;
          Alcotest.test_case "sum within 1e-12" `Quick
            test_weights_sum_within_1e12;
          Alcotest.test_case "occam pruning deterministic" `Quick
            test_weights_occam_pruning_deterministic;
        ] );
      ( "state",
        [
          Alcotest.test_case "add, canary prior, duplicates" `Quick
            test_state_add_and_canary_prior;
          Alcotest.test_case "record and reset-on-add" `Quick
            test_state_record_and_reset;
          Alcotest.test_case "codec round-trip and corruption" `Quick
            test_state_codec_roundtrip_and_corruption;
          Alcotest.test_case "bytes golden" `Quick test_state_bytes_golden;
          Alcotest.test_case "forged length refused" `Quick
            test_state_forged_length_refused;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "decomposed combine" `Quick
            test_combine_decomposition;
          Alcotest.test_case "zero-weight members skipped" `Quick
            test_combine_skips_zero_weight;
        ] );
      ( "store",
        [
          Alcotest.test_case "save/load/list" `Quick test_store_save_load_list;
          Alcotest.test_case "distinct names never collide" `Quick
            test_store_distinct_names_never_collide;
          Alcotest.test_case "corruption refused" `Quick
            test_store_corrupt_listed_not_loaded;
        ] );
      ( "manager",
        [
          Alcotest.test_case "canary overtakes on favoring evidence" `Quick
            test_manager_canary_overtakes;
          Alcotest.test_case "unavailable member scores neutral" `Quick
            test_manager_score_unavailable_member_is_neutral;
          Alcotest.test_case "reload picks up and drops" `Quick
            test_manager_reload_picks_up_and_drops;
        ] );
    ]
