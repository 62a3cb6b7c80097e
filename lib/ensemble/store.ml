(* On-disk ensemble registry: one [.bmfe] file per ensemble, living in
   the same root as the model artifacts it references, written through
   Serving.Store's atomic writer — so ensemble weight state survives a
   SIGKILL the way acknowledged model updates do, and `repro recover`'s
   sweep of [.{name}.tmp.{pid}] files covers interrupted ensemble saves
   too.

   The [.bmfe] suffix is invisible to Serving.Store.list (which matches
   [.bmfa]/[.bmfa.json] only), so the two registries share a directory
   without seeing each other's files. *)

let extension = ".bmfe"

(* [sanitize] is lossy, so the filename carries a short digest of the
   raw name — same move as the artifact store's key digest. *)
let name_digest name =
  String.sub (Serving.Artifact.checksum_hex name) 0 8

let filename name =
  Printf.sprintf "%s__h%s%s" (Serving.Store.sanitize name) (name_digest name)
    extension

let path ~root name = Filename.concat root (filename name)

let save ?(durability = `Fast) ~root state =
  let name = filename state.State.name in
  ignore
    (Serving.Store.write_atomic ~durability ~dir:root ~name
       (State.to_binary_string state));
  Filename.concat root name

let load_file file =
  match Serving.Store.read_file file with
  | Error msg -> Error ("ensemble: " ^ msg)
  | Ok contents -> State.of_binary_string contents

let find ~root name =
  let file = path ~root name in
  if Sys.file_exists file then Some file else None

let load ~root name =
  match find ~root name with
  | Some file -> load_file file
  | None ->
      Error
        (Printf.sprintf "ensemble: no ensemble %S under %s (expected %s)" name
           root (filename name))

let list ~root =
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort String.compare
    |> List.filter (fun name ->
           (not (Serving.Store.is_temp name))
           && Filename.check_suffix name extension)
    |> List.map (fun name ->
           let file = Filename.concat root name in
           (file, load_file file))
