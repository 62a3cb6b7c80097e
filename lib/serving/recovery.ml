(* Restart-time recovery: sweep interrupted-save temp files, re-verify
   every artifact checksum, replay the journal tail for updates whose
   artifact save never completed, and leave the journal clean. *)

type report = {
  scanned : int;
  verified : int;
  corrupt : (string * string) list;
  temps_removed : int;
  replayed : int;
  discarded : int;
  replay_errors : (string * string) list;
  journal_tail_error : string option;
}

let m_recovered =
  Obs.Metrics.counter
    ~help:"Journaled updates replayed into the store at recovery"
    "bmf_server_recovered_updates_total"

let replay_entry ~durability ~root (e : Journal.entry) =
  match Store.load ~root e.Journal.meta with
  | Error _ ->
      (* no base artifact to apply on — nothing replayable; the entry
         pre-dated an artifact that has since vanished or never landed *)
      `Discarded
  | Ok art -> (
      match Update.rule ~rev:art.Artifact.rev e with
      | Update.Stale ->
          (* the save completed before the crash: already reflected *)
          `Discarded
      | Update.Gap ->
          `Failed
            (Printf.sprintf "artifact rev %d behind journal base %d"
               art.Artifact.rev e.base_rev)
      | Update.Apply -> (
          match ignore (Store.save ~durability ~root (Update.fold art e)) with
          | () -> `Replayed
          | exception exn -> `Failed (Printexc.to_string exn)))

let recover ?(durability = `Durable) ~root () =
  Obs.Trace.with_span ~cat:"serving" "recovery" @@ fun sp ->
  (* 1. orphaned temp files from saves that died before their rename —
     never visible to readers, but swept so they cannot accumulate *)
  let temps = Store.list_temp_files ~root in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) temps;
  (* 2. full store verification (decode + checksum of every artifact) *)
  let entries = Store.list ~root in
  let corrupt =
    List.filter_map
      (fun (e : Store.entry) ->
        match e.status with
        | Ok _ -> None
        | Error msg -> Some (e.file, msg))
      entries
  in
  (* 3. journal replay: entries whose artifact save did not complete *)
  let journal, journal_tail_error = Journal.read ~root in
  let replayed = ref 0 and discarded = ref 0 in
  let replay_errors = ref [] in
  List.iter
    (fun (e : Journal.entry) ->
      match replay_entry ~durability ~root e with
      | `Replayed -> incr replayed
      | `Discarded -> incr discarded
      | `Failed msg ->
          replay_errors :=
            (Store.key_string e.Journal.meta, msg) :: !replay_errors)
    journal;
  (* 4. the journal's work is done (replayed or provably stale):
     reset it to a clean header so the next crash starts from zero *)
  if Sys.file_exists (Journal.file ~root) then
    Journal.close (Journal.open_ ~durability ~root ());
  Obs.Metrics.inc ~by:(float_of_int !replayed) m_recovered;
  let report =
    {
      scanned = List.length entries;
      verified = List.length entries - List.length corrupt;
      corrupt;
      temps_removed = List.length temps;
      replayed = !replayed;
      discarded = !discarded;
      replay_errors = List.rev !replay_errors;
      journal_tail_error;
    }
  in
  Obs.Trace.set_attr sp "scanned" (Obs.Trace.Int report.scanned);
  Obs.Trace.set_attr sp "replayed" (Obs.Trace.Int report.replayed);
  report

let clean r = r.corrupt = [] && r.replay_errors = []

let summary r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "recovery: %d artifact(s) scanned, %d verified, %d corrupt; %d temp \
     file(s) removed; journal: %d replayed, %d discarded"
    r.scanned r.verified (List.length r.corrupt) r.temps_removed r.replayed
    r.discarded;
  (match r.journal_tail_error with
  | None -> ()
  | Some e -> Printf.bprintf b "; torn tail discarded (%s)" e);
  List.iter
    (fun (f, msg) -> Printf.bprintf b "\n  corrupt: %s: %s" f msg)
    r.corrupt;
  List.iter
    (fun (k, msg) -> Printf.bprintf b "\n  replay failed: %s: %s" k msg)
    r.replay_errors;
  Buffer.contents b
