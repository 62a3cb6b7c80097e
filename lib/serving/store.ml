let default_root () =
  match Sys.getenv_opt "BMF_MODEL_DIR" with Some d -> d | None -> "models"

type durability = [ `Fast | `Durable ]

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' -> c
      | _ -> '_')
    s

(* [sanitize] is lossy ("gain+bw" and "gain_bw" both map to "gain_bw",
   and a circuit named "a__b" collides with the field separator), so the
   filename also carries a short digest of the raw key triple. NUL
   separators make the digest input unambiguous — no raw field can
   contain one. *)
let key_digest (meta : Artifact.meta) =
  let raw =
    String.concat "\x00" [ meta.circuit; meta.metric; meta.scale ]
  in
  String.sub (Artifact.checksum_hex raw) 0 8

let filename (meta : Artifact.meta) =
  Printf.sprintf "%s__%s__%s__s%d__h%s.bmfa" (sanitize meta.circuit)
    (sanitize meta.metric) (sanitize meta.scale) meta.seed (key_digest meta)

let key_string (meta : Artifact.meta) =
  Printf.sprintf "%s/%s scale=%s seed=%d" meta.circuit meta.metric meta.scale
    meta.seed

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let m_bytes_written =
  Obs.Metrics.counter ~help:"Artifact bytes written to the store"
    "bmf_store_bytes_written_total"

let m_bytes_read =
  Obs.Metrics.counter ~help:"Artifact bytes read from the store"
    "bmf_store_bytes_read_total"

let m_saves =
  Obs.Metrics.counter ~help:"Artifacts saved" "bmf_store_saves_total"

let m_loads =
  Obs.Metrics.counter ~help:"Artifact load attempts" "bmf_store_loads_total"

let m_corrupt =
  Obs.Metrics.counter ~help:"Artifact loads that failed verification"
    "bmf_store_corrupt_total"

let m_verify_seconds =
  Obs.Metrics.histogram
    ~help:"Artifact decode + checksum verification latency (seconds)"
    "bmf_store_verify_seconds"

let m_fsync_seconds =
  Obs.Metrics.histogram
    ~help:"Time spent in fsync (file + directory) per durable save"
    "bmf_store_fsync_seconds"

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let w = Unix.write fd b off (n - off) in
      go (off + w)
    end
  in
  go 0

(* Make a completed rename durable: fsync the directory so the new
   directory entry itself survives power loss (POSIX does not promise
   this from the file fsync alone). *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Crash/race safety: write the full payload to a private temp file in
   the same directory, then atomically rename over the target. A reader
   (or a running server's model snapshot) always sees either the
   previous complete file or the new complete file — never a torn one.
   Under [`Durable] the temp file is fsynced before the rename and the
   directory after it, so the new file also survives power loss;
   [`Fast] leaves flushing to the kernel. *)
let write_atomic ~durability ~dir ~name data =
  mkdir_p dir;
  let tmp =
    Filename.concat dir (Printf.sprintf ".%s.tmp.%d" name (Unix.getpid ()))
  in
  let fsync_s = ref 0. in
  let timed_fsync fsync =
    let t0 = Obs.Clock.now_s () in
    fsync ();
    fsync_s := !fsync_s +. (Obs.Clock.now_s () -. t0)
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         Crashpoint.step ();
         write_all fd data;
         match durability with
         | `Fast -> ()
         | `Durable ->
             Crashpoint.step ();
             timed_fsync (fun () -> Unix.fsync fd))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (try
     Crashpoint.step ();
     Sys.rename tmp (Filename.concat dir name)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (match durability with
  | `Fast -> ()
  | `Durable ->
      Crashpoint.step ();
      timed_fsync (fun () -> fsync_dir dir));
  !fsync_s

let save ?(format = Artifact.Binary) ?(durability = `Fast) ~root artifact =
  let name = filename artifact.Artifact.meta in
  let file = Filename.concat root name in
  Obs.Trace.with_span ~cat:"serving" "store_save" @@ fun sp ->
  let data = Artifact.to_string format artifact in
  let fsync_s = write_atomic ~durability ~dir:root ~name data in
  (match durability with
  | `Fast -> ()
  | `Durable -> Obs.Metrics.observe m_fsync_seconds fsync_s);
  Obs.Trace.set_attr sp "file" (Obs.Trace.Str file);
  Obs.Trace.set_attr sp "bytes" (Obs.Trace.Int (String.length data));
  Obs.Metrics.inc ~by:(float_of_int (String.length data)) m_bytes_written;
  Obs.Metrics.inc m_saves;
  file

let find ~root meta =
  let file = Filename.concat root (filename meta) in
  if Sys.file_exists file then Some file else None

(* Sys_error text is not guaranteed to carry the path; prefix it so a
   failed read is attributable to its store file. *)
let read_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error msg ->
      if String.length msg >= String.length file
         && String.sub msg 0 (String.length file) = file
      then Error msg
      else Error (file ^ ": " ^ msg)

(* A file counts only under the name [find] opens for the key inside
   it; anything else is reported, never served, so [list] and [find]
   agree. JSON artifacts (written by older builds) are not decoded. *)
let decode file contents =
  let name = Filename.basename file in
  if Filename.check_suffix name ".bmfa.json" then
    Error "artifact: JSON artifacts are no longer read; re-fit this model"
  else
    match Artifact.of_string contents with
    | Ok a when name <> filename a.Artifact.meta ->
        Error
          (Printf.sprintf "artifact: misnamed: %s is stored as %s"
             (key_string a.Artifact.meta) (filename a.Artifact.meta))
    | status -> status

(* Read + decode one artifact file, measuring payload size and the
   decode/checksum-verify time (reported by [repro models] and the store
   metrics). *)
let load_file file =
  Obs.Trace.with_span ~cat:"serving" "store_load" @@ fun sp ->
  Obs.Trace.set_attr sp "file" (Obs.Trace.Str file);
  Obs.Metrics.inc m_loads;
  match read_file file with
  | Error msg ->
      Obs.Metrics.inc m_corrupt;
      (Error ("artifact: " ^ msg), 0, 0.)
  | Ok contents ->
      let bytes = String.length contents in
      Obs.Trace.set_attr sp "bytes" (Obs.Trace.Int bytes);
      Obs.Metrics.inc ~by:(float_of_int bytes) m_bytes_read;
      let t0 = Obs.Clock.now_s () in
      let status = decode file contents in
      let verify_seconds = Obs.Clock.now_s () -. t0 in
      Obs.Metrics.observe m_verify_seconds verify_seconds;
      if Result.is_error status then Obs.Metrics.inc m_corrupt;
      (status, bytes, verify_seconds)

let load ~root meta =
  match find ~root meta with
  | Some file ->
      let status, _, _ = load_file file in
      status
  | None ->
      (* name the directory that was searched AND the filename the key
         resolves to — the sanitized key alone is useless when several
         stores (or a mistyped --dir) are in play *)
      Error
        (Printf.sprintf "store: no artifact for %s under %s (expected %s)"
           (key_string meta) root (filename meta))

type entry = {
  file : string;
  bytes : int;
  verify_seconds : float;
  status : (Artifact.t, string) result;
}

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let is_temp name =
  String.length name > 0 && name.[0] = '.' && contains_substring name ".tmp."

let list ~root =
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun name ->
           if
             is_temp name
             || not
                  (Filename.check_suffix name ".bmfa"
                  || Filename.check_suffix name ".bmfa.json")
           then None
           else
             let file = Filename.concat root name in
             let status, bytes, verify_seconds = load_file file in
             Some { file; bytes; verify_seconds; status })

(* Orphaned temp files: a crash between temp-write and rename leaves a
   [.<name>.tmp.<pid>] behind. They are invisible to [find]/[list] but
   recovery sweeps them out. *)
let list_temp_files ~root =
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort String.compare
    |> List.filter is_temp
    |> List.map (Filename.concat root)

let verify ~root meta =
  match load ~root meta with Ok _ -> Ok () | Error e -> Error e
